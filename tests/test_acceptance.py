"""End-to-end checks, one per headline claim of the workbench.  Each test
name maps to a summary line printed after the run (see conftest)."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from semilab.embedding import (check_malcev_condition, probe_embedding,
                               quadruple_presentation)
from semilab.fields import GF, QQ
from semilab.finite import (check_laws, decompose_right_group,
                            enumerate_semigroups, is_associative, is_group,
                            semigroup_representatives)
from semilab.presentations import build_gm, parse_presentation_text
from semilab.rank1 import (canonical_directions, gab_group, make_rank1,
                           multiply, pairing, rank1_universe, to_dense)
from semilab.rewriting import (CONFLUENT, enumerate_elements, kb_complete,
                               reduce, replay_derivation, verify_confluence)

QUAD = quadruple_presentation()
FREE2 = parse_presentation_text("letters: a b")
COMM2 = parse_presentation_text("letters: a b\nrel: b a = a b")


@pytest.fixture(scope="module")
def small_semigroups():
    return {n: list(enumerate_semigroups(n)) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def order5_representatives():
    # one table per isomorphism class; each law below is invariant under
    # renaming the elements, so one per class decides it for the class
    return list(semigroup_representatives(5))


def test_a1_quadruple_collision():
    started = time.monotonic()
    rs_m = kb_complete(QUAD)
    assert rs_m.status == CONFLUENT and len(rs_m.rules) == 3
    rep = probe_embedding(QUAD, 2)
    assert rep.status == "collision"
    w = rep.witnesses[0]
    assert (QUAD.word_str(w.u), QUAD.word_str(w.v)) == ("u c", "v d")
    # distinct in M: both already irreducible under the confluent system
    assert reduce(w.u, rs_m) == w.u and reduce(w.v, rs_m) == w.v
    # equal in the extension, with evidence that replays step by step
    assert w.g_certificate.nf_u == w.g_certificate.nf_v
    assert w.derivation is not None
    assert w.derivation.words[0] == w.u and w.derivation.words[-1] == w.v
    assert replay_derivation(rep.gm, w.derivation)
    assert time.monotonic() - started < 10


def test_a2_free_monoids_embed():
    started = time.monotonic()
    free = probe_embedding(FREE2, 4)
    assert free.status == "no-collision-found"
    assert free.element_count == 31
    # every element is alone in its G(M) bucket, so no pair is compared
    assert free.budget_spent["buckets"] == 31
    assert free.budget_spent["pairs_checked"] == 0
    assert free.inconclusive == ()
    comm = probe_embedding(COMM2, 4)
    assert comm.status == "no-collision-found"
    assert comm.inconclusive == ()
    assert time.monotonic() - started < 30


def test_a3_cancellative_is_group(small_semigroups):
    started = time.monotonic()
    seen = 0
    for n, tables in small_semigroups.items():
        for t in tables:
            rep = check_laws(t)
            if rep.left_unique and rep.right_unique:
                seen += 1
                assert is_group(t), t.rows
    assert seen == 1 + 2 + 3 + 16
    assert time.monotonic() - started < 300


def test_a4_right_group_decomposition(small_semigroups):
    seen = 0
    for n, tables in small_semigroups.items():
        for t in tables:
            rep = check_laws(t)
            # aX = b always solvable and ax = ay implies x = y
            if rep.right_solvable and rep.right_unique:
                seen += 1
                d = decompose_right_group(t)
                assert is_group(d.group_part)
                assert d.reconstructs(t)
    assert seen > 22           # at least the groups plus right-zero tables


def test_a3_order5_cancellative_is_group(order5_representatives):
    seen = []
    for t in order5_representatives:
        rep = check_laws(t)
        if rep.left_unique and rep.right_unique:
            seen.append(t)
            assert is_group(t), t.rows
    assert len(seen) == 1                     # Z5, the only group of order 5


def test_a4_order5_right_group_decomposition(order5_representatives):
    shapes = []
    for t in order5_representatives:
        rep = check_laws(t)
        if rep.right_solvable and rep.right_unique:
            d = decompose_right_group(t)
            assert is_group(d.group_part)
            assert d.reconstructs(t)
            shapes.append((d.group_part.n, len(d.idempotents)))
    # Z5 x {e} and {e} x the right-zero band on five elements
    assert sorted(shapes) == [(1, 5), (5, 1)]


def test_a5_rank1_product_oracle():
    def dense_mul(field, A, B):
        n = len(A)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = field.zero
                for k in range(n):
                    acc = field.add(acc, field.mul(A[i][k], B[k][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    for p in (2, 3):
        field = GF(p)
        universe = rank1_universe(2, p).elements
        for m1 in universe:
            for m2 in universe:
                assert to_dense(multiply(m1, m2)) == \
                    dense_mul(field, to_dense(m1), to_dense(m2))

    rng = random.Random(1937)
    F5 = GF(5)
    for _ in range(1000):
        m1 = make_rank1(F5, [rng.randrange(5) for _ in "xy"],
                        [rng.randrange(5) for _ in "xy"])
        m2 = make_rank1(F5, [rng.randrange(5) for _ in "xy"],
                        [rng.randrange(5) for _ in "xy"])
        assert to_dense(multiply(m1, m2)) == \
            dense_mul(F5, to_dense(m1), to_dense(m2))
    for _ in range(1000):
        def frac():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        m1 = make_rank1(QQ, (frac(), frac()), (frac(), frac()))
        m2 = make_rank1(QQ, (frac(), frac()), (frac(), frac()))
        assert to_dense(multiply(m1, m2)) == \
            dense_mul(QQ, to_dense(m1), to_dense(m2))


def test_a6_direction_groups():
    started = time.monotonic()
    for p in (2, 3, 5):
        field = GF(p)
        for n in (2, 3):
            dirs = canonical_directions(field, n)
            checked = 0
            for a in dirs:
                for b in dirs:
                    if pairing(field, a, b) == field.zero:
                        continue
                    # gab_group certifies closure, identity, inverses and
                    # the scalar isomorphism exhaustively before returning
                    g = gab_group(field, a, b)
                    assert g.order == p - 1
                    images = sorted(g.iso_image(m) for m in g.elements)
                    assert images == list(field.nonzero())
                    checked += 1
            assert checked > 0
    assert time.monotonic() - started < 60


def test_a7_universe_counts():
    u2 = rank1_universe(2, 2)
    assert len(u2.elements) == 9 + 1
    assert is_associative(u2.table)
    u3 = rank1_universe(2, 3)
    assert len(u3.elements) == 32 + 1
    assert is_associative(u3.table)


def test_a8_rewriting_soundness():
    corpus = [QUAD, build_gm(QUAD), FREE2, build_gm(FREE2), COMM2,
              build_gm(COMM2),
              parse_presentation_text("letters: a\nrel: a a = a"),
              parse_presentation_text("letters: a a'\nrel: a a' = 1\n"
                                      "rel: a' a = 1")]
    for p in corpus:
        rs = kb_complete(p)
        assert rs.status == CONFLUENT
        assert verify_confluence(rs) == []
        for rel in p.relations:
            assert reduce(rel.lhs, rs) == reduce(rel.rhs, rs)
        for w in enumerate_elements(rs, 2):
            assert reduce(w, rs) == w
            assert reduce(reduce(w + w, rs), rs) == reduce(w + w, rs)


def test_a9_malcev_scan(small_semigroups):
    for n, tables in small_semigroups.items():
        for t in tables:
            rep = check_laws(t)
            if rep.left_unique and rep.right_unique:
                assert check_malcev_condition(t).violations == ()
    # the scan is meaningful: violations exist elsewhere and re-verify
    violating_tables = 0
    for t in small_semigroups[3]:
        rep = check_malcev_condition(t)
        for a, b, c, d, u, v, x, y in rep.violations:
            assert t.rows[x][a] == t.rows[y][b]
            assert t.rows[x][c] == t.rows[y][d]
            assert t.rows[u][a] == t.rows[v][b]
            assert t.rows[u][c] != t.rows[v][d]
        violating_tables += bool(rep.violations)
    assert violating_tables > 0


def test_a9_order5_malcev_scan(order5_representatives):
    cancellative = 0
    for t in order5_representatives:
        rep = check_laws(t)
        if rep.left_unique and rep.right_unique:
            cancellative += 1
            assert check_malcev_condition(t).violations == ()
    assert cancellative == 1
