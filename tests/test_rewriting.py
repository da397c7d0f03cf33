import hashlib
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from semilab.presentations import EMPTY, parse_presentation_text, build_gm
from semilab.embedding import probe_embedding
from semilab.rewriting import (BUDGET_EXHAUSTED, CONFLUENT, DISTINCT, EQUAL,
                               UNKNOWN, DerivationCertificate, DerivationStep,
                               RewriteSystem, RewritingError, Rule,
                               apply_derivation_step, critical_pairs,
                               derivation_certificate, derive_equal,
                               enumerate_elements, equal_words, kb_complete,
                               reduce, reduce_with_trace, replay_derivation,
                               rule_derivation, shortlex_less,
                               verify_confluence, _enc,
                               _normal_form_counts, _reduce)


def pres(text):
    return parse_presentation_text(text)


FREE2 = pres("letters: a b")
IDEM = pres("letters: a\nrel: a a = a")
FREEGRP1 = pres("letters: a a'\nrel: a a' = 1\nrel: a' a = 1")
FREEGRP2 = pres("letters: a a' b b'\nrel: a a' = 1\nrel: a' a = 1\n"
                "rel: b b' = 1\nrel: b' b = 1")
COMM = pres("letters: a b\nrel: b a = a b")
QUAD = pres("letters: x y a b c d u v\nrel: x a = y b\nrel: x c = y d\n"
            "rel: u a = v b")
Z2 = pres("letters: a\nrel: a a = 1")
B3 = pres("letters: a b\nrel: a b a = b a b")
TRACE = pres("letters: a b c d\nrel: b a = a b\nrel: d c = c d")
# Z3 x N: rules b a -> a b and a a a -> 1, two lhs lengths
Z3N = pres("letters: a b\nrel: a a a = 1\nrel: b a = a b")

# relation sides for random presentations: up to four letter ids each
SIDES = st.lists(st.integers(0, 2), max_size=4)

CORPUS = [FREE2, IDEM, FREEGRP1, FREEGRP2, COMM, QUAD, build_gm(QUAD),
          build_gm(COMM), Z2]
A8_CORPUS = [QUAD, build_gm(QUAD), FREE2, build_gm(FREE2), COMM,
             build_gm(COMM), IDEM, FREEGRP1]


# -- ordering ---------------------------------------------------------------

def test_shortlex_is_length_first():
    a, b = FREE2.alphabet
    assert shortlex_less((), (a,))
    assert shortlex_less((b,), (a, a))
    assert shortlex_less((a, b), (b, a))
    assert not shortlex_less((a,), (a,))


def test_shortlex_barred_ranks_after_partner():
    p = FREEGRP2
    a, ab, b, bb = p.alphabet
    assert shortlex_less((a,), (ab,))
    assert shortlex_less((ab,), (b,))
    assert shortlex_less((b,), (bb,))


def test_shortlex_respects_custom_order():
    # the letters: line is the letter order
    assert shortlex_less(FREE2.word("a"), FREE2.word("b"))
    ba = pres("letters: b a")
    assert shortlex_less(ba.word("b"), ba.word("a"))
    assert shortlex_less(ba.word("b a"), ba.word("a b"))


def test_shortlex_total_order_exhaustive():
    letters = FREE2.alphabet
    words = [w for n in range(3) for w in product(letters, repeat=n)]
    for u in words:
        for v in words:
            assert (u == v) + shortlex_less(u, v) + shortlex_less(v, u) == 1


# -- completion -------------------------------------------------------------

def test_kb_free_monoid_no_rules():
    rs = kb_complete(FREE2)
    assert rs.status == CONFLUENT and rs.rules == ()


def test_kb_free_group_one_letter():
    rs = kb_complete(FREEGRP1)
    assert rs.status == CONFLUENT
    got = {(rs.source.word_str(r.lhs), rs.source.word_str(r.rhs))
           for r in rs.rules}
    assert got == {("a a'", "1"), ("a' a", "1")}
    assert verify_confluence(rs) == []


def test_kb_quadruple_three_rules_no_overlaps():
    rs = kb_complete(QUAD)
    assert rs.status == CONFLUENT
    got = {(QUAD.word_str(r.lhs), QUAD.word_str(r.rhs)) for r in rs.rules}
    assert got == {("y b", "x a"), ("y d", "x c"), ("v b", "u a")}
    # the three left sides cannot overlap, so there are no critical pairs
    assert critical_pairs(rs) == []


def test_kb_budget_exhaustion_is_status():
    rs = kb_complete(FREEGRP2, max_rules=1)
    assert rs.status == BUDGET_EXHAUSTED
    assert len(rs.rules) >= 1
    rs = kb_complete(FREEGRP2, max_len=1)
    assert rs.status == BUDGET_EXHAUSTED


def test_kb_corpus_confluent_and_interreduced():
    for p in CORPUS:
        rs = kb_complete(p)
        assert rs.status == CONFLUENT
        assert verify_confluence(rs) == []
        assert_interreduced(rs)


def brute_critical_pairs(rs):
    """Every proper overlap and containment of two rule lhs, found by
    comparing Letter tuples at every offset: (overlap word, result via the
    first rule, result via the second)."""
    out = []
    for i, (li, ri) in enumerate((r.lhs, r.rhs) for r in rs.rules):
        for j, (lj, rj) in enumerate((r.lhs, r.rhs) for r in rs.rules):
            for k in range(1, min(len(li), len(lj))):
                if li[-k:] == lj[:k]:
                    out.append((li + lj[k:], ri + lj[k:], li[:-k] + rj))
            if i != j:
                for pos in range(len(li) - len(lj) + 1):
                    if li[pos:pos + len(lj)] == lj:
                        out.append((li, ri, li[:pos] + rj + li[pos + len(lj):]))
    return sorted(out)


def test_critical_pairs_match_brute_force():
    # completion generates its overlaps with the same code as critical_pairs,
    # so this is what checks that code against an independent scan
    systems = [kb_complete(p) for p in CORPUS + A8_CORPUS]
    systems += [kb_complete(p, **budgets)
                for p, budgets, _, _ in GOLDEN_EXHAUSTED]
    # completion interreduces, so only a hand-built system has a lhs that
    # contains another
    systems.append(RewriteSystem(IDEM, (
        Rule(IDEM.word("a a"), IDEM.word("a")),
        Rule(IDEM.word("a a a"), IDEM.word("a"))), CONFLUENT))
    for rs in systems:
        assert sorted(critical_pairs(rs)) == brute_critical_pairs(rs)


def test_verify_confluence_reports_unresolved_pairs():
    # stopped at its budget, completion leaves pairs that do not resolve
    rs = kb_complete(B3, max_rules=5)
    bad = verify_confluence(rs)
    assert len(bad) == 6
    overlaps = {w for w, _, _ in critical_pairs(rs)}
    for w, na, nb in bad:
        assert w in overlaps and na != nb
        assert reduce(na, rs) == na and reduce(nb, rs) == nb


def assert_interreduced(rs):
    """No rule side contains another rule's left side."""
    for i, r in enumerate(rs.rules):
        for j, other in enumerate(rs.rules):
            if i != j:
                assert not _contains(r.lhs, other.lhs)
            assert not _contains(r.rhs, other.lhs)


def _contains(word, factor):
    k = len(factor)
    return any(word[i:i + k] == factor for i in range(len(word) - k + 1))


def test_kb_custom_letter_order_flips_orientation():
    # with b declared heavier, b a = a b orients one way; declaring the
    # letters in reverse order reverses the rule
    rs = kb_complete(COMM)
    (rule,) = rs.rules
    assert COMM.word_str(rule.lhs) == "b a"
    comm_ba = pres("letters: b a\nrel: b a = a b")
    (rule2,) = kb_complete(comm_ba).rules
    assert comm_ba.word_str(rule2.lhs) == "a b"


# -- reduction --------------------------------------------------------------

def test_reduce_irreducible_fixpoint():
    rs = kb_complete(QUAD)
    w = QUAD.word("u c")
    assert reduce(w, rs) == w
    nf, steps = reduce_with_trace(w, rs)
    assert nf == w and steps == ()


def test_reduce_single_rule_substitution():
    rs = kb_complete(QUAD)
    assert reduce(QUAD.word("y d"), rs) == QUAD.word("x c")


# the A8 corpus completes; G(B3+) stops at the rule budget
TRACE_SYSTEMS = [kb_complete(p) for p in A8_CORPUS] + \
    [kb_complete(build_gm(B3), max_rules=40)]


@given(st.data())
def test_reduce_trace_replays_and_descends(data):
    rs = data.draw(st.sampled_from(TRACE_SYSTEMS))
    w = tuple(data.draw(st.lists(st.sampled_from(rs.source.alphabet),
                                 max_size=12)))
    nf, steps = reduce_with_trace(w, rs)
    cur = w
    for step in steps:
        rule = rs.rules[step.rule]
        assert cur[step.pos:step.pos + len(rule.lhs)] == rule.lhs
        nxt = cur[:step.pos] + rule.rhs + cur[step.pos + len(rule.lhs):]
        assert shortlex_less(nxt, cur)
        cur = nxt
    assert cur == nf == reduce(w, rs)
    assert not any(_contains(nf, rule.lhs) for rule in rs.rules)


def test_reduce_trace_follows_completion_sweeps():
    # each sweep applies rule 0 (a a -> a) at every non-overlapping match,
    # then rule 1 (b b -> b); leftmost-first would start with rule 1 at 0
    p = pres("letters: a b\nrel: a a = a\nrel: b b = b")
    rs = kb_complete(p)
    nf, steps = reduce_with_trace(p.word("b b b a a a"), rs)
    assert nf == p.word("b a")
    assert [(s.rule, s.pos) for s in steps] == [(0, 3), (1, 0), (0, 2), (1, 0)]


def test_reduce_leftmost_first():
    rs = kb_complete(IDEM)
    _, steps = reduce_with_trace(IDEM.word("a a a"), rs)
    assert [s.pos for s in steps] == [0, 0]


def test_relation_soundness_corpus():
    for p in CORPUS:
        rs = kb_complete(p)
        for rel in p.relations:
            assert reduce(rel.lhs, rs) == reduce(rel.rhs, rs)


@given(st.lists(st.integers(0, 3), max_size=8))
def test_reduce_idempotent_and_congruent(ids):
    rs = kb_complete(FREEGRP1)
    letters = FREEGRP1.alphabet
    w = tuple(letters[i % 2] for i in ids)
    nf = reduce(w, rs)
    assert reduce(nf, rs) == nf
    for cut in range(len(w) + 1):
        u, v = w[:cut], w[cut:]
        assert reduce(reduce(u, rs) + reduce(v, rs), rs) == nf


# -- enumeration ------------------------------------------------------------

def brute_irreducibles(p, rs, max_len):
    lhss = [r.lhs for r in rs.rules]
    out = []
    for n in range(max_len + 1):
        for w in product(p.alphabet, repeat=n):
            if not any(_contains(w, l) for l in lhss):
                out.append(w)
    return out


def test_enumerate_free_monoid_len2():
    rs = kb_complete(FREE2)
    words = enumerate_elements(rs, 2)
    assert [FREE2.word_str(w) for w in words] == \
        ["1", "a", "b", "a a", "a b", "b a", "b b"]


def test_enumerate_idempotent_letter():
    rs = kb_complete(IDEM)
    assert [IDEM.word_str(w) for w in enumerate_elements(rs, 3)] == ["1", "a"]


def test_enumerate_free_group_len2():
    rs = kb_complete(FREEGRP1)
    got = {FREEGRP1.word_str(w) for w in enumerate_elements(rs, 2)}
    assert got == {"1", "a", "a'", "a a", "a' a'"}


def test_enumerate_matches_brute_force_and_order():
    # the packed enumeration, decoded, against every word with no lhs
    # factor; Z3N's lhs a a a makes the suffix test look up two lengths
    cases = [(p, 3) for p in CORPUS] + [(QUAD, 4), (TRACE, 6), (COMM, 8),
                                        (Z3N, 8), (FREEGRP2, 5)]
    for p, max_len in cases:
        rs = kb_complete(p)
        words = enumerate_elements(rs, max_len)
        assert words == brute_irreducibles(p, rs, max_len)
        for u, v in zip(words, words[1:]):
            assert shortlex_less(u, v)


def test_enumerate_rejects_non_confluent():
    rs = kb_complete(FREEGRP2, max_rules=1)
    with pytest.raises(RewritingError):
        enumerate_elements(rs, 2)
    with pytest.raises(RewritingError):
        list(_normal_form_counts(rs, 2))


def assert_counts_match_listing(rs, max_len):
    # the acceptor's count at each length is the number of listed normal
    # forms of that length, and it stops at the first length with none
    counts = list(_normal_form_counts(rs, max_len))
    listed = Counter(map(len, enumerate_elements(rs, max_len)))
    assert counts == [listed[k] for k in range(len(counts))]
    assert 0 not in counts and len(counts) <= max_len + 1
    assert sum(counts) == sum(listed.values())


def test_normal_form_counts_match_listing_corpus():
    # up to length 6, or the longest length whose listing stays within
    # 50,000 words: build_gm(QUAD) has 634,061 normal forms up to length 5
    for p in CORPUS + A8_CORPUS:
        rs = kb_complete(p)
        assert rs.status == CONFLUENT
        counts, max_len = list(_normal_form_counts(rs, 6)), 6
        while sum(counts[:max_len + 1]) > 50_000:
            max_len -= 1
        assert max_len >= 4
        assert_counts_match_listing(rs, max_len)
    # two lhs lengths; a finite monoid's counts stop at its longest word
    assert_counts_match_listing(kb_complete(Z3N), 8)
    assert list(_normal_form_counts(kb_complete(Z2), 6)) == [1, 1]


@settings(max_examples=60)
@given(st.integers(2, 3), st.lists(st.tuples(SIDES, SIDES), min_size=1,
                                   max_size=3),
       st.integers(1, 5))
def test_normal_form_counts_match_listing_random(n_letters, relations,
                                                 max_len):
    def side(ids):
        return " ".join("abc"[i % n_letters] for i in ids) or "1"
    p = pres(f"letters: {side(range(n_letters))}\n" + "".join(
        f"rel: {side(l)} = {side(r)}\n" for l, r in relations))
    rs = kb_complete(p, max_rules=20, max_len=8)
    assume(rs.status == CONFLUENT)
    assert_counts_match_listing(rs, max_len)
    # the counts and the listing read one acceptor; the brute force shares
    # none of its code
    assert enumerate_elements(rs, max_len) == brute_irreducibles(p, rs,
                                                                 max_len)


# -- equality ---------------------------------------------------------------

def test_equal_words_confluent_decisive():
    rs = kb_complete(FREEGRP1)
    v = equal_words(rs, FREEGRP1.word("a a'"), EMPTY)
    assert v.value == EQUAL
    assert v.certificate.nf_u == v.certificate.nf_v == EMPTY
    v = equal_words(rs, FREEGRP1.word("a"), FREEGRP1.word("a'"))
    assert v.value == DISTINCT
    assert v.certificate.nf_u != v.certificate.nf_v


def test_equal_words_quadruple_distinct_in_m():
    rs = kb_complete(QUAD)
    v = equal_words(rs, QUAD.word("u c"), QUAD.word("v d"))
    assert v.value == DISTINCT
    assert (v.certificate.nf_u, v.certificate.nf_v) == \
        (QUAD.word("u c"), QUAD.word("v d"))


def test_derive_equal_quadruple_in_extension():
    gm = build_gm(QUAD)
    v = derive_equal(gm, gm.word("u c"), gm.word("v d"))
    assert v.value == EQUAL
    cert = v.certificate
    assert cert.words[0] == gm.word("u c")
    assert cert.words[-1] == gm.word("v d")
    assert replay_derivation(gm, cert)


def test_derive_equal_insertion_steps():
    # relations with an empty side insert material; ensure those replay too
    v = derive_equal(Z2, Z2.word("a a"), EMPTY)
    assert v.value == EQUAL and replay_derivation(Z2, v.certificate)
    v = derive_equal(Z2, Z2.word("a a a"), Z2.word("a"))
    assert v.value == EQUAL and replay_derivation(Z2, v.certificate)


def test_derive_equal_same_word():
    gm = build_gm(QUAD)
    w = gm.word("u c")
    v = derive_equal(gm, w, w)
    assert v.value == EQUAL
    assert v.certificate == DerivationCertificate((w,), ())
    assert replay_derivation(gm, v.certificate)
    assert v.spent["visited"] == 2


def test_derive_equal_budget_unknown():
    gm = build_gm(QUAD)
    v = derive_equal(gm, gm.word("u c"), gm.word("v d"), budget=5)
    assert v.value == UNKNOWN
    assert v.certificate is None
    assert v.spent["visited"] <= 5


def test_derive_equal_cannot_prove_distinct():
    gm = build_gm(QUAD)
    v = derive_equal(gm, gm.word("u c"), gm.word("x a"), budget=2000)
    assert v.value == UNKNOWN


def test_equal_words_falls_back_without_confluence():
    rs = kb_complete(FREEGRP2, max_rules=1)
    p = FREEGRP2
    v = equal_words(rs, p.word("a a'"), EMPTY)
    assert v.value == EQUAL
    assert replay_derivation(p, v.certificate)


def test_replay_rejects_tampered_certificates():
    v = derive_equal(Z2, Z2.word("a a"), EMPTY)
    cert = v.certificate
    bad = type(cert)(cert.words[:-1] + (Z2.word("a"),), cert.steps)
    assert not replay_derivation(Z2, bad)
    # one word more than the steps allow
    bad = type(cert)(cert.words + (EMPTY,), cert.steps)
    assert not replay_derivation(Z2, bad)
    # a step whose relation side is not at its position
    bad = type(cert)(cert.words, (DerivationStep(0, 1, True),))
    assert not replay_derivation(Z2, bad)
    # a relation index past the last relation
    bad = type(cert)(cert.words, (DerivationStep(len(Z2.relations), 0, True),))
    assert not replay_derivation(Z2, bad)
    # a negative relation index, which would name the last relation
    bad = type(cert)(cert.words, (DerivationStep(-1, 0, True),))
    assert not replay_derivation(Z2, bad)
    # a position outside the word: an empty side matches anywhere
    back = type(cert)(cert.words[::-1], (DerivationStep(0, 0, False),))
    assert replay_derivation(Z2, back)
    for pos in (-1, 1):
        bad = type(cert)(back.words, (DerivationStep(0, pos, False),))
        assert not replay_derivation(Z2, bad)
    # no words at all
    assert not replay_derivation(Z2, type(cert)((), ()))


def test_derivation_step_refuses_non_int_indices():
    # bool is an int subclass: True would name relation 1 and False
    # position 0, where b b = 1 fits, so the chain would replay
    p = pres("letters: a b\nrel: a a = 1\nrel: b b = 1")
    words = (p.word("b b"), EMPTY)
    good = DerivationCertificate(words, (DerivationStep(1, 0, True),))
    assert replay_derivation(p, good)
    for step in (DerivationStep(True, 0, True), DerivationStep(1, False, True),
                 DerivationStep(True, False, True),
                 DerivationStep(1.0, 0, True)):
        with pytest.raises(RewritingError, match="must be ints"):
            apply_derivation_step(p, words[0], step)
        assert not replay_derivation(p, DerivationCertificate(words, (step,)))


def test_derivation_step_refuses_non_bool_direction():
    # any truthy value would read as forward: "no" would apply a a -> 1
    p = pres("letters: a\nrel: a a = 1")
    words = (p.word("a a"), EMPTY)
    good = DerivationCertificate(words, (DerivationStep(0, 0, True),))
    assert replay_derivation(p, good)
    for forward in ("no", 1, 0, None, 1.0):
        step = DerivationStep(0, 0, forward)
        with pytest.raises(RewritingError, match="must be a bool"):
            apply_derivation_step(p, words[0], step)
        assert not replay_derivation(p, DerivationCertificate(words, (step,)))


# -- completion records -------------------------------------------------------

def rule_list_digest(rs):
    text = "\n".join(f"{rs.source.word_str(r.lhs)} -> "
                     f"{rs.source.word_str(r.rhs)}" for r in rs.rules)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def assert_rules_replay(rs):
    p = rs.source
    for idx, rule in enumerate(rs.rules):
        cert = derivation_certificate(p, rule.lhs, rule_derivation(rs, idx))
        assert cert.words[-1] == rule.rhs
        assert replay_derivation(p, cert)


# completions that stop at a budget, pinned to the rule lists they gave
# before completion kept records: the records must not change the rules
GOLDEN_EXHAUSTED = [
    (B3, {}, 47, "f9498c22db323467"),
    (B3, {"max_len": 6}, 3, "fcce6bbc78d3ba06"),
    (build_gm(B3), {"max_rules": 40}, 30, "96e87506247c6729"),
    (build_gm(B3), {"max_rules": 1}, 1, "e71166a34fea7c06"),
]


@pytest.mark.parametrize("p, budgets, count, digest", GOLDEN_EXHAUSTED)
def test_kb_budget_exhausted_rule_lists_golden(p, budgets, count, digest):
    rs = kb_complete(p, **budgets)
    assert rs.status == BUDGET_EXHAUSTED
    assert len(rs.rules) == count
    assert rule_list_digest(rs) == digest
    assert_interreduced(rs)
    assert_rules_replay(rs)


MEMO_SYSTEMS = [kb_complete(p) for p in CORPUS] + \
    [kb_complete(p, **budgets) for p, budgets, _, _ in GOLDEN_EXHAUSTED]


@settings(max_examples=40)
@given(st.data())
def test_reduce_memo_matches_plain_reduce(data):
    # completion reduces through a sweep memo; looked-up sweeps must give
    # the words and parts that running them again gives
    rs = data.draw(st.sampled_from(MEMO_SYSTEMS))
    rules = rs._enc_rules
    strings = data.draw(st.lists(
        st.text(alphabet=_enc(rs.source.alphabet), max_size=14),
        min_size=1, max_size=10))
    memo = {}
    cold = [_reduce(s, rules, memo) for s in strings]
    assert cold == [_reduce(s, rules) for s in strings]
    warm = [_reduce(s, rules, memo) for s in strings]
    assert warm == cold
    stored = {id(sweep) for _, sweep in memo.values()}
    assert not any(id(parts) in stored for _, parts in cold + warm)


@given(st.sampled_from(A8_CORPUS + [FREEGRP2, Z2, B3]),
       st.integers(1, 40), st.integers(1, 8))
def test_rule_derivation_replays_every_rule(p, max_rules, max_len):
    rs = kb_complete(p, max_rules=max_rules, max_len=max_len)
    assert_interreduced(rs)
    assert_rules_replay(rs)


def test_rule_derivation_replays_corpus_at_default_budgets():
    for p in A8_CORPUS:
        rs = kb_complete(p)
        assert rs.status == CONFLUENT
        assert_rules_replay(rs)


def test_rule_derivation_budget_and_misuse():
    rs = kb_complete(B3, max_len=10)
    longest = max(len(rule_derivation(rs, i)) for i in range(len(rs.rules)))
    assert longest > 1
    assert all(rule_derivation(rs, i, max_steps=longest) is not None
               for i in range(len(rs.rules)))
    assert any(rule_derivation(rs, i, max_steps=longest - 1) is None
               for i in range(len(rs.rules)))
    with pytest.raises(RewritingError):
        rule_derivation(rs, len(rs.rules))
    bare = RewriteSystem(rs.source, rs.rules, rs.status)
    assert bare == rs
    with pytest.raises(RewritingError):
        rule_derivation(bare, 0)


def test_probe_certificates_agree_with_search():
    # the confluent path reads certificates off completion; the search it
    # replaced must still find every pair equal
    rep = probe_embedding(QUAD, 3)
    assert len(rep.witnesses) == 17
    assert rep.budget_spent["words_visited"] == 0
    for w in rep.witnesses:
        cert = w.derivation
        assert cert.words[0] == w.u and cert.words[-1] == w.v
        assert replay_derivation(rep.gm, cert)
        assert derive_equal(rep.gm, w.u, w.v).value == EQUAL
    assert rep.budget_spent["certificate_steps"] == \
        sum(len(w.derivation.steps) for w in rep.witnesses)
