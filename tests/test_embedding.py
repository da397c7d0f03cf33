from itertools import product

import pytest

from semilab.embedding import (CollisionWitness, MalcevReport, ProbeError,
                               check_malcev_condition, probe_embedding,
                               quadruple_presentation)
from semilab.finite import CayleyTable, TableError, enumerate_semigroups
from semilab.presentations import build_gm, parse_presentation_text
from semilab.rewriting import (CONFLUENT, kb_complete, reduce,
                               replay_derivation)


def pres(text):
    return parse_presentation_text(text)


FREE2 = pres("letters: a b")
COMM2 = pres("letters: a b\nrel: b a = a b")
QUAD = quadruple_presentation()


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


# -- probe: errors and budgets ------------------------------------------------

def test_probe_rejects_extension_kind():
    with pytest.raises(ProbeError):
        probe_embedding(build_gm(FREE2), 2)


def test_probe_rejects_bad_length():
    with pytest.raises(ProbeError):
        probe_embedding(FREE2, 0)


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


def test_malcev_matches_brute_force_order3_sample():
    # every table of order <= 3, violations in the brute force's
    # lexicographic order
    for n in (1, 2, 3):
        for t in enumerate_semigroups(n):
            rep = check_malcev_condition(t)
            checked, violations = brute_malcev(t)
            assert rep.systems_checked == checked
            assert list(rep.violations) == violations


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


def test_malcev_report_json():
    rep = check_malcev_condition(CayleyTable(((0, 0), (1, 1))))
    assert rep.to_json() == {"systems_checked": 64, "holds": True,
                             "violations": []}
