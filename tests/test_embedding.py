import json
import sys
import time
from itertools import chain, islice, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from semilab import cli, rewriting
from semilab.embedding import (CollisionWitness, MalcevReport, ProbeError,
                               check_malcev_condition, probe_embedding,
                               quadruple_presentation)
from semilab.finite import CayleyTable, TableError, enumerate_semigroups
from semilab.presentations import (build_gm, parse_presentation_file,
                                    parse_presentation_text)
from semilab.rank1 import rank1_universe
from semilab.rewriting import (CONFLUENT, collapsed_normal_forms,
                               enumerate_elements, kb_complete, reduce,
                               replay_derivation)


def pres(text):
    return parse_presentation_text(text)


FREE2 = pres("letters: a b")
FREE3 = pres("letters: a b c")
COMM2 = pres("letters: a b\nrel: b a = a b")
QUAD = quadruple_presentation()
TRACE = pres("letters: a b c d\nrel: b a = a b\nrel: d c = c d")
# the quadruple relations plus e a b = b b a e: G(M) stops at its rule budget
INPUTS = Path(__file__).resolve().parent.parent / "inputs"
QUAD_E = parse_presentation_file(INPUTS / "quadruple-e.pres")
# a b = a c in G(M) cancels to b = c, and a b = a to b = 1
ABSORB = pres("letters: a b c\nrel: a b = a\nrel: a c = a")


# -- probe: positive cases --------------------------------------------------

def test_probe_free_monoid_no_collision():
    rep = probe_embedding(FREE2, 4)
    assert rep.status == "no-collision-found"
    assert rep.element_count == 31          # 2^0 + ... + 2^4
    assert rep.budget_spent["buckets"] == 31
    assert rep.budget_spent["pairs_checked"] == 0
    assert rep.witnesses == () and rep.inconclusive == ()


def exponent_vector(word):
    counts = {}
    for letter in word:
        counts[letter] = counts.get(letter, 0) + 1
    return tuple(sorted(counts.items()))


def test_probe_free_commutative_no_collision():
    rep = probe_embedding(COMM2, 4)
    assert rep.status == "no-collision-found"
    # elements are exactly the multisets a^i b^j with i + j <= 4
    assert rep.element_count == 15
    assert rep.witnesses == () and rep.inconclusive == ()
    # oracle: distinct normal forms have distinct exponent vectors, so no
    # two of them can meet in the free abelian group either
    rs = kb_complete(COMM2)
    from semilab.rewriting import enumerate_elements
    vecs = [exponent_vector(w) for w in enumerate_elements(rs, 4)]
    assert len(set(vecs)) == len(vecs)


# -- probe: the collision ----------------------------------------------------

def test_probe_quadruple_collision_minimal_witness():
    rep = probe_embedding(QUAD, 2)
    assert rep.status == "collision"
    w = rep.witnesses[0]
    assert QUAD.word_str(w.u) == "u c"
    assert QUAD.word_str(w.v) == "v d"


def test_probe_collision_witness_re_verifies():
    rep = probe_embedding(QUAD, 2)
    rs_m = kb_complete(QUAD)
    gm = rep.gm
    rs_g = kb_complete(gm)
    assert rs_g.status == CONFLUENT
    for w in rep.witnesses:
        # distinct in M: both are irreducible and differ
        assert reduce(w.u, rs_m) == w.u
        assert reduce(w.v, rs_m) == w.v
        assert w.u != w.v
        # equal in the extension: shared normal form and replayable chain
        assert reduce(w.u, rs_g) == reduce(w.v, rs_g) == w.g_normal_form
        cert = w.g_certificate
        assert (cert.nf_u, cert.nf_v) == (w.g_normal_form, w.g_normal_form)
        assert w.derivation is not None
        assert w.derivation.words[0] == w.u
        assert w.derivation.words[-1] == w.v
        assert replay_derivation(gm, w.derivation)


def test_probe_monotone_in_length():
    pairs2 = {(w.u, w.v) for w in probe_embedding(QUAD, 2).witnesses}
    rep3 = probe_embedding(QUAD, 3)
    pairs3 = {(w.u, w.v) for w in rep3.witnesses}
    assert rep3.status == "collision"
    assert pairs2 <= pairs3


def test_probe_budget_exhausted_extension_buckets():
    # a search over the pairs in order would spend its whole budget on the
    # first dozen of 290,703 pairs here and find no collision
    rep = probe_embedding(QUAD_E, 3)
    assert rep.budget_spent["extension_status"] == "budget-exhausted"
    assert rep.status == "collision"
    assert len(rep.witnesses) == 19
    w = rep.witnesses[0]
    assert (QUAD_E.word_str(w.u), QUAD_E.word_str(w.v)) == ("u c", "v d")
    assert rep.inconclusive_count == 0 and rep.inconclusive == ()
    for w in rep.witnesses:
        assert w.derivation.words[-1] == w.v
        assert replay_derivation(rep.gm, w.derivation)


def test_probe_search_collision_settles_the_probe():
    # two rules leave G(M) incomplete and every bucket a single element, so
    # the pair search runs; it finds 1 = b, and that answers the probe
    rep = probe_embedding(ABSORB, 2, max_rules=2)
    spent = rep.budget_spent
    assert spent["extension_status"] == "budget-exhausted"
    assert spent["buckets"] == 11 and spent["words_visited"] > 0
    assert rep.status == "collision"
    [w] = rep.witnesses
    assert (ABSORB.word_str(w.u), ABSORB.word_str(w.v)) == ("1", "b")
    assert replay_derivation(rep.gm, w.derivation)
    assert rep.inconclusive_count == 0 and rep.inconclusive == ()


def test_probe_pair_order_minimal_first():
    rep = probe_embedding(QUAD, 3)
    lens = [(len(w.u), len(w.v)) for w in rep.witnesses]
    assert lens == sorted(lens)


def test_probe_report_json_shape():
    rep = probe_embedding(QUAD, 2)
    j = rep.to_json()
    assert j["status"] == "collision"
    assert j["witnesses"][0]["u"] == "u c"
    assert j["witnesses"][0]["v"] == "v d"
    assert j["witnesses"][0]["derivation_steps"] >= 1
    assert j["inconclusive_count"] == 0


# -- probe: the packed pipeline against words -------------------------------

def test_gm_keeps_m_letters():
    # the probe reduces M's words with G(M)'s rules as they are
    for p in (QUAD, TRACE, COMM2):
        assert set(p.alphabet) <= set(build_gm(p).alphabet)


def word_level_probe(p, max_len, max_rules=rewriting.DEFAULT_MAX_RULES,
                     max_rule_len=rewriting.DEFAULT_MAX_RULE_LEN):
    """The probe's bucketing on Letter tuples, under every rule of the same
    completion of G(M), confluent or not: element count, bucket count and
    the colliding pairs, minimal first."""
    budgets = {"max_rules": max_rules, "max_len": max_rule_len}
    rs_g = kb_complete(build_gm(p), **budgets)
    elements = enumerate_elements(kb_complete(p, **budgets), max_len)
    buckets = {}
    for i, w in enumerate(elements):
        buckets.setdefault(reduce(w, rs_g), []).append(i)
    pairs = sorted((i, j) for members in buckets.values()
                   for k, i in enumerate(members) for j in members[k + 1:])
    return (len(elements), len(buckets),
            [(elements[i], elements[j]) for i, j in pairs])


def test_probe_matches_word_level_reference():
    # no rule of G(M) can fire on a normal form of FREE2, FREE3 (no rule
    # kept), TRACE or COMM2 (only M's own rules kept); QUAD, QUAD_E and
    # ABSORB are bucketed under G(M)'s rules over M's letters, or all of
    # them when some such rule's rhs leaves M's letters
    for p, max_len in ((QUAD, 3), (QUAD, 4), (TRACE, 6), (COMM2, 5),
                       (QUAD_E, 3), (FREE2, 5), (FREE3, 4), (ABSORB, 4)):
        rep = probe_embedding(p, max_len)
        n, buckets, pairs = word_level_probe(p, max_len)
        assert rep.element_count == n
        assert rep.budget_spent["buckets"] == buckets
        assert [(w.u, w.v) for w in rep.witnesses] == pairs


SIDES = st.lists(st.integers(0, 2), min_size=1, max_size=3)


@settings(max_examples=150)
@given(st.integers(2, 3), st.lists(st.tuples(SIDES, SIDES), min_size=1,
                                   max_size=2),
       st.integers(1, 20), st.integers(1, 3))
def test_collapsed_normal_forms_match_word_level_reference(
        n_letters, relations, max_rules, max_len):
    def side(ids):
        return " ".join("abc"[i % n_letters] for i in ids)
    p = pres(f"letters: {side(range(n_letters))}\n" + "".join(
        f"rel: {side(l)} = {side(r)}\n" for l, r in relations))
    budgets = {"max_rules": max_rules, "max_len": 6}
    rs_m = kb_complete(p, **budgets)
    assume(rs_m.status == CONFLUENT)
    n, buckets, groups = collapsed_normal_forms(
        rs_m, kb_complete(build_gm(p), **budgets), max_len)
    elements = enumerate_elements(rs_m, max_len)
    index = {w: i for i, w in enumerate(elements)}
    firsts = [index[g[0]] for g in groups]
    assert firsts == sorted(firsts)
    pairs = sorted((index[u], index[v]) for g in groups
                   for k, u in enumerate(g) for v in g[k + 1:])
    assert (n, buckets, [(elements[i], elements[j]) for i, j in pairs]) \
        == word_level_probe(p, max_len, max_rules, 6)


def test_collapsed_normal_forms_rules_tried():
    # (input, G(M) rules, rules each reduction tries, or 0 when the normal
    # forms are only counted); some of quadruple-e's rules over M's letters
    # have a rhs outside them, so all of G(M)'s rules are tried
    for name, total, tried in (("trace-abcd", 16, 0), ("quadruple", 40, 4),
                               ("free-abc", 6, 0), ("quadruple-e", 487, 487)):
        p = parse_presentation_file(INPUTS / f"{name}.pres")
        rs_m, rs_g = kb_complete(p), kb_complete(build_gm(p))
        assert len(rs_g.rules) == total
        calls = []

        def recording_reduce(s, rules, _reduce=rewriting._reduce):
            calls.append(rules)
            return _reduce(s, rules)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rewriting, "_reduce", recording_reduce)
            n = collapsed_normal_forms(rs_m, rs_g, 3)[0]
        assert len(calls) == (n if tried else 0)
        assert all(len(rules) == tried for rules in calls)
        if tried == 4:
            m_letters = set(rewriting._enc(p.alphabet))
            assert all(m_letters.issuperset(l + r)
                       for l, r, _ in calls[0])


def test_collapsed_normal_forms_counts_without_listing(monkeypatch):
    # no G(M) rule can match a normal form of trace-abcd or free-abc, so
    # their normal forms are counted by the acceptor and none is listed
    def no_listing(rs, max_len):
        raise AssertionError("normal forms listed only to be counted")
    monkeypatch.setattr(rewriting, "_irreducible_strings", no_listing)
    for name, count in (("trace-abcd", 31519), ("free-abc", 9841)):
        p = parse_presentation_file(INPUTS / f"{name}.pres")
        rs_m, rs_g = kb_complete(p), kb_complete(build_gm(p))
        assert collapsed_normal_forms(rs_m, rs_g, 8) == (count, count, [])


def test_collapsed_groups_in_order_of_first_members():
    rs_m, rs_g = kb_complete(QUAD), kb_complete(build_gm(QUAD))
    groups = collapsed_normal_forms(rs_m, rs_g, 3)[2]
    elements = enumerate_elements(rs_m, 3)
    index = {w: i for i, w in enumerate(elements)}
    firsts = [index[g[0]] for g in groups]
    assert len(groups) == 17 and firsts == sorted(firsts)
    # not vacuous: in the order of their second members they would differ
    seconds = sorted(groups, key=lambda g: index[g[1]])
    assert [index[g[0]] for g in seconds] != firsts


# -- probe: errors and budgets ------------------------------------------------

def test_probe_rejects_extension_kind():
    with pytest.raises(ProbeError):
        probe_embedding(build_gm(FREE2), 2)


def test_probe_rejects_bad_length():
    with pytest.raises(ProbeError):
        probe_embedding(FREE2, 0)


def test_probe_rejects_negative_budget():
    with pytest.raises(ProbeError, match="budget must not be negative"):
        probe_embedding(QUAD, 2, budget=-1)
    # a zero budget is valid: every derivation is over it
    rep = probe_embedding(QUAD, 2, budget=0)
    assert rep.status == "collision"
    assert rep.budget_spent["derivations_over_budget"] == len(rep.witnesses)


def test_probe_certificate_budget():
    rep = probe_embedding(QUAD, 3)
    longest = max(len(w.derivation.steps) for w in rep.witnesses)
    assert rep.budget_spent["derivations_over_budget"] == 0
    capped = probe_embedding(QUAD, 3, budget=longest - 1)
    assert capped.status == "collision"
    over = [w for w in capped.witnesses if w.derivation is None]
    assert over and len(over) == capped.budget_spent["derivations_over_budget"]
    assert capped.budget_spent["certificate_steps"] == sum(
        len(w.derivation.steps) for w in capped.witnesses if w.derivation)
    assert all("derivation" not in entry for entry, w in
               zip(capped.to_json()["witnesses"], capped.witnesses)
               if w.derivation is None)


def test_probe_fallback_keeps_first_inconclusive_pairs():
    # the free monoid completes with no rules; its extension needs four, so
    # max_rules=1 sends the probe down the per-pair search; the default
    # budget lets every one of the 105 searches run
    rep = probe_embedding(FREE2, 3, max_rules=1)
    assert rep.budget_spent["extension_status"] == "budget-exhausted"
    assert rep.status == "inconclusive"
    assert rep.budget_spent["pairs_checked"] == 15 * 14 // 2
    assert rep.inconclusive_count == 105
    assert len(rep.inconclusive) == 20
    assert rep.inconclusive[0] == (FREE2.word("1"), FREE2.word("a"))
    j = rep.to_json()
    assert j["inconclusive_count"] == 105 and len(j["inconclusive"]) == 20


def test_probe_fallback_budget_is_global():
    rep = probe_embedding(FREE2, 3, budget=1000, max_rules=1)
    spent = rep.budget_spent
    assert spent["words_visited"] <= 1000
    assert 0 < spent["pairs_checked"] < 105
    # the pairs the budget did not reach are inconclusive too
    assert rep.status == "inconclusive"
    assert rep.inconclusive_count == 105
    assert len(rep.inconclusive) == 20
    assert rep.inconclusive[0] == (FREE2.word("1"), FREE2.word("a"))


def test_probe_free_monoid_length_15_in_bounded_memory(semilab_capped):
    # 21,523,360 elements: listed, they would take about 5.6 GB (by
    # extrapolation from shorter lengths); counted, the run fits in the
    # 512 MiB cap
    start = time.perf_counter()
    proc = semilab_capped("probe", INPUTS / "free-abc.pres", "--max-len", 15,
                          limit_mib=512)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "no-collision-found"
    assert report["element_count"] == 21_523_360


def test_probe_fallback_draws_elements_lazily(semilab_capped):
    # max_rules=1 sends free-abc down the per-pair search; its 100,000-word
    # budget runs out after 74 searches, which reach 75 of the 797,161
    # elements up to length 12.  Listing all of them peaked at 183 MiB,
    # past this 128 MiB cap.
    proc = semilab_capped("probe", INPUTS / "free-abc.pres", "--max-len", 12,
                          "--max-rules", 1)
    assert proc.returncode == 3, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "inconclusive"
    assert report["inconclusive_count"] == 797_161 * 797_160 // 2
    assert report["inconclusive"][:2] == [["1", "a"], ["1", "b"]]
    assert report["budget_spent"]["pairs_checked"] == 74
    assert report["budget_spent"]["words_visited"] == 100_000


def test_probe_count_too_long_to_print_exit2(semilab_capped):
    # free-abc's count passes 4,300 digits at about length 9,013; the
    # probe stops counting there and refuses it, with no traceback
    start = time.perf_counter()
    proc = semilab_capped("probe", INPUTS / "free-abc.pres", "--max-len",
                          10_000, limit_mib=512)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: {INPUTS / 'free-abc.pres'}: the count of normal forms has "
        f"more than {sys.get_int_max_str_digits()} digits, too many to "
        "print\n")


def test_probe_base_budget_exhaustion():
    freegrp = pres("letters: a a' b b'\nrel: a a' = 1\nrel: a' a = 1\n"
                   "rel: b b' = 1\nrel: b' b = 1")
    with pytest.raises(ProbeError) as exc:
        probe_embedding(freegrp, 2, max_rules=1)
    assert exc.value.stage == "base-completion"
    assert exc.value.details["rules"] >= 1


# -- quadruple condition on tables --------------------------------------------

def brute_malcev(t):
    n = t.n
    checked = 0
    violations = []
    for a, b, c, d, u, v, x, y in product(range(n), repeat=8):
        if (t.rows[x][a] == t.rows[y][b] and t.rows[x][c] == t.rows[y][d]
                and t.rows[u][a] == t.rows[v][b]):
            checked += 1
            if t.rows[u][c] != t.rows[v][d]:
                violations.append((a, b, c, d, u, v, x, y))
    return checked, violations


def test_malcev_group_tables_clean():
    for n in (2, 3, 4):
        t = CayleyTable(tuple(tuple((i + j) % n for j in range(n))
                              for i in range(n)))
        rep = check_malcev_condition(t)
        assert rep.holds and rep.violations == ()


def test_malcev_left_zero_matches_brute_force():
    t = CayleyTable(((0, 0), (1, 1)))
    rep = check_malcev_condition(t)
    checked, violations = brute_malcev(t)
    assert rep.systems_checked == checked == 64
    assert list(rep.violations) == violations == []


def test_malcev_matches_brute_force_order3_and_order4_sample():
    # every table of order <= 3 and every 100th of order 4, where the sizes
    # of P_ab vary, violations in the brute force's lexicographic order
    tables = chain(*map(enumerate_semigroups, (1, 2, 3)),
                   islice(enumerate_semigroups(4), 0, None, 100))
    for t in tables:
        rep = check_malcev_condition(t)
        checked, violations = brute_malcev(t)
        assert rep.systems_checked == checked
        assert list(rep.violations) == violations
        assert rep.violation_count == len(violations)
        assert rep.holds == (rep.violation_count == 0) == (not violations)


def test_malcev_counts_and_lists_rank1_1_11():
    # the benchmark's violating table: the count comes from the scan, the
    # tuples only when drawn, and each draw lists them again in order
    rep = check_malcev_condition(rank1_universe(1, 11).table)
    assert rep.systems_checked == 479_281
    assert rep.violation_count == 277_200 and not rep.holds
    listed = list(rep.iter_violations())
    assert listed == list(rep.iter_violations()) == list(rep.violations)
    assert len(listed) == rep.violation_count
    assert listed == sorted(set(listed))


def frozenset_malcev(t):
    """The scan on frozensets, for comparison: with P_ab and k as in
    check_malcev_condition, Σ |P_ab|·k and Σ (|P_ab| - k)·k over all pairs
    of (a, b) and (c, d), and the violations as nested loops list them, a
    block (system, sorted P_ab - P_cd, sorted anchors) per system that has
    any."""
    rng = range(t.n)
    sets = {(a, b): frozenset((x, y) for x in rng for y in rng
                              if t.rows[x][a] == t.rows[y][b])
            for a in rng for b in rng}
    checked = count = 0
    blocks = []
    for ab, p_ab in sets.items():
        for cd, p_cd in sets.items():
            anchors = p_ab & p_cd
            k = len(anchors)
            checked += len(p_ab) * k
            count += (len(p_ab) - k) * k
            if (len(p_ab) - k) * k:
                blocks.append((ab + cd, tuple(sorted(p_ab - p_cd)),
                               tuple(sorted(anchors))))
    return checked, count, blocks


def nested_loop_listing(blocks):
    return [system + uv + xy for system, uvs, anchors in blocks
            for uv in uvs for xy in anchors]


def test_malcev_bitmasks_match_frozensets():
    # every table of order <= 4 and the benchmark's violating table: the
    # popcount sums and the blocks against frozensets, and the listing
    # against nested loops; the order-4 tables have 7,584,018 violations in
    # all, about 8 s to list on both sides, so every 10th is listed
    cases = [(t, True) for t in chain(*map(enumerate_semigroups, (1, 2, 3)),
                                      [rank1_universe(1, 11).table])]
    cases += [(t, i % 10 == 0) for i, t in enumerate(enumerate_semigroups(4))]
    for t, listed in cases:
        rep = check_malcev_condition(t)
        checked, count, blocks = frozenset_malcev(t)
        assert (rep.systems_checked, rep.violation_count) == (checked, count)
        assert list(rep.blocks()) == blocks
        if listed:
            assert list(rep.iter_violations()) == nested_loop_listing(blocks)
    # masks that repeat with unequal weights, too many violations to list
    # in a test: the counts alone
    for n, p in ((2, 2), (1, 23)):
        t = rank1_universe(n, p).table
        rep = check_malcev_condition(t)
        checked, count, _ = frozenset_malcev(t)
        assert (rep.systems_checked, rep.violation_count) == (checked, count)


def test_malcev_counts_the_33_element_table():
    # rank1_universe(2, 3), committed as inputs/rank1-2-3.json: the pinned
    # oracle counts, in about 0.3 s on a 2-vCPU host (the bound is loose,
    # for slower hosts; on frozensets the scan took about 3 s)
    with open(INPUTS / "rank1-2-3.json", encoding="utf-8") as fh:
        t = CayleyTable.from_json(json.load(fh))
    started = time.monotonic()
    rep = check_malcev_condition(t)
    assert rep.systems_checked == 2_526_467_841
    assert rep.violation_count == 1_604_427_264
    assert time.monotonic() - started < 10


def test_malcev_violations_re_verify():
    found = 0
    for t in enumerate_semigroups(3):
        rep = check_malcev_condition(t)
        for a, b, c, d, u, v, x, y in rep.violations:
            assert t.rows[x][a] == t.rows[y][b]
            assert t.rows[x][c] == t.rows[y][d]
            assert t.rows[u][a] == t.rows[v][b]
            assert t.rows[u][c] != t.rows[v][d]
        found += bool(rep.violations)
    assert found > 0           # the scan is not vacuous


def test_malcev_rejects_non_associative():
    with pytest.raises(TableError):
        check_malcev_condition(CayleyTable(((1, 0), (0, 0))))


def test_malcev_report_json(tmp_path, capsys):
    rep = check_malcev_condition(CayleyTable(((0, 0), (1, 1))))
    assert rep.to_json() == {"systems_checked": 64, "holds": True,
                             "violations": []}
    # with violations, to_json is the CLI's report without n and verb
    t = next(t for t in enumerate_semigroups(3)
             if check_malcev_condition(t).violation_count)
    rep = check_malcev_condition(t)
    assert rep.violation_count == 480
    path = tmp_path / "t.json"
    path.write_text(json.dumps(t.to_json()))
    assert cli.main(["malcev", str(path)]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report.pop("n") == 3 and report.pop("verb") == "malcev"
    assert json.loads(json.dumps(rep.to_json())) == report
