import random
from fractions import Fraction
from itertools import product

import pytest

from semilab.fields import GF, QQ, FieldError, dot, scale, vector
from semilab.finite import is_associative, table_from_product
from semilab.rank1 import (GabGroup, MatrixError, Rank1Matrix, from_dense,
                           gab_group, idempotent, make_rank1, multiply,
                           pairing, rank1_universe, to_dense, zero_matrix)

F2, F3, F5 = GF(2), GF(3), GF(5)


def dense_mul(field, A, B):
    n = len(A)
    return tuple(tuple(
        sum_(field, (field.mul(A[i][k], B[k][j]) for k in range(n)))
        for j in range(n)) for i in range(n))


def sum_(field, xs):
    acc = field.zero
    for x in xs:
        acc = field.add(acc, x)
    return acc


# -- fields -------------------------------------------------------------------

def test_prime_field_requires_prime():
    # a refusal is not cached: every call raises
    for _ in range(2):
        with pytest.raises(FieldError):
            GF(4)
        with pytest.raises(FieldError):
            GF(1)
    assert GF(7).order == 7
    assert GF(7) is GF(7)


def test_field_arithmetic():
    assert F5.inv(2) == 3 and F5.mul(2, 3) == 1
    assert F5.div(1, 4) == 4
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    assert QQ.add(QQ.coerce(Fraction(1, 3)), QQ.coerce(Fraction(1, 6))) \
        == Fraction(1, 2)


def test_coercion_rejects_inexact():
    with pytest.raises(FieldError):
        F5.coerce(1.5)
    with pytest.raises(FieldError):
        QQ.coerce(0.1)
    assert QQ.coerce(3) == Fraction(3)


def test_field_descriptors():
    assert F3.descriptor() == {"p": 3}
    assert QQ.descriptor() == {"p": "Q"}


# -- canonical forms ----------------------------------------------------------

def test_make_rank1_canonicalizes():
    m = make_rank1(F5, (2, 4), (1, 1))
    assert m.col == (1, 2) and m.row == (2, 2)


def test_make_rank1_zero_and_fixpoint():
    assert make_rank1(F5, (0, 0), (1, 2)).is_zero
    assert make_rank1(F5, (1, 2), (0, 0)).is_zero
    m = make_rank1(F5, (1, 0), (3, 1))
    assert m.col == (1, 0) and m.row == (3, 1)


def test_make_rank1_dimension_mismatch():
    with pytest.raises(MatrixError):
        make_rank1(F5, (1, 2), (1, 2, 3))
    with pytest.raises(MatrixError):
        make_rank1(F5, (), ())


def test_rank1_validation():
    with pytest.raises(MatrixError):
        Rank1Matrix(F5, 2, (2, 1), (1, 0))      # column not in gauge
    with pytest.raises(MatrixError):
        Rank1Matrix(F5, 2, (1, 0), None)


def test_canonical_form_unique_exhaustive_f5():
    vecs = [v for v in product(range(5), repeat=2) if any(v)]
    for x in vecs:
        for y in vecs:
            for alpha in range(1, 5):
                ax = tuple(F5.mul(alpha, c) for c in x)
                ay = tuple(F5.mul(alpha, c) for c in y)
                m = make_rank1(F5, ax, y)
                assert m == make_rank1(F5, x, ay)
                lead = next(c for c in m.col if c)
                assert lead == 1


def test_equality_iff_dense_equality_exhaustive_f3():
    vecs = [v for v in product(range(3), repeat=2) if any(v)]
    mats = [make_rank1(F3, x, y) for x in vecs for y in vecs]
    for m1 in mats:
        for m2 in mats:
            assert (m1 == m2) == (to_dense(m1) == to_dense(m2))


# -- products -----------------------------------------------------------------

def test_multiply_scalar_formula_example():
    m1 = make_rank1(F5, (1, 2), (3, 1))
    m2 = make_rank1(F5, (1, 0), (0, 4))
    assert dot(F5, m1.row, m2.col) == 3
    assert to_dense(multiply(m1, m2)) == ((0, 2), (0, 4))


def test_multiply_zero_behavior():
    m = make_rank1(F5, (1, 2), (3, 1))
    z = zero_matrix(F5, 2)
    assert multiply(m, z) == z and multiply(z, m) == z
    nil = make_rank1(F5, (1, 0), (0, 1))
    assert multiply(nil, nil).is_zero


def test_multiply_mismatch():
    with pytest.raises(MatrixError):
        multiply(make_rank1(F5, (1,), (1,)), make_rank1(F5, (1, 0), (1, 0)))
    with pytest.raises(MatrixError):
        multiply(make_rank1(F5, (1, 0), (1, 0)), make_rank1(F3, (1, 0), (1, 0)))


def test_product_oracle_exhaustive_f2_f3():
    for p in (2, 3):
        field = GF(p)
        u = rank1_universe(2, p)
        for m1 in u.elements:
            for m2 in u.elements:
                assert to_dense(multiply(m1, m2)) == \
                    dense_mul(field, to_dense(m1), to_dense(m2))


def test_product_oracle_random_f5_and_rationals():
    rng = random.Random(20260815)

    def rand_f5():
        return make_rank1(F5, [rng.randrange(5) for _ in range(2)],
                          [rng.randrange(5) for _ in range(2)])

    def rand_q():
        def frac():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        return make_rank1(QQ, [frac() for _ in range(2)],
                          [frac() for _ in range(2)])

    for make in (rand_f5, rand_q):
        field = F5 if make is rand_f5 else QQ
        for _ in range(1000):
            m1, m2 = make(), make()
            assert to_dense(multiply(m1, m2)) == \
                dense_mul(field, to_dense(m1), to_dense(m2))


# -- dense bridge ---------------------------------------------------------------

def test_dense_round_trip():
    m = make_rank1(F5, (1, 2), (3, 1))
    assert to_dense(m) == ((3, 1), (1, 2))
    assert from_dense(F5, to_dense(m)) == m
    z = zero_matrix(F5, 2)
    assert to_dense(z) == ((0, 0), (0, 0))
    assert from_dense(F5, ((0, 0), (0, 0))) == z


def test_from_dense_rejects_rank2():
    with pytest.raises(MatrixError):
        from_dense(F5, ((1, 0), (0, 1)))


def test_from_dense_rationals():
    m = make_rank1(QQ, (Fraction(1, 2), 3), (2, Fraction(5, 7)))
    assert from_dense(QQ, to_dense(m)) == m


# -- idempotents and direction groups -------------------------------------------

def test_idempotent_examples():
    assert to_dense(idempotent(F5, (1, 0), (1, 0))) == ((1, 0), (0, 0))
    e = idempotent(F5, (1, 1), (1, 2))
    assert to_dense(e) == ((2, 4), (2, 4))
    assert multiply(e, e) == e
    with pytest.raises(MatrixError):
        idempotent(F5, (1, 0), (0, 1))


def test_gab_group_f5_order4_cyclic():
    g = gab_group(F5, (1, 1), (1, 2))
    assert g.order == 4
    assert g.identity == idempotent(F5, (1, 1), (1, 2))
    # cyclic: some element generates all four
    def powers(m):
        seen = [m]
        cur = m
        while True:
            cur = multiply(cur, m)
            if cur in seen:
                return seen
            seen.append(cur)
    assert any(len(powers(m)) == 4 for m in g.elements)


def test_gab_group_small_fields():
    assert gab_group(F2, (1, 0), (1, 1)).order == 1
    g = gab_group(F3, (1, 0), (1, 0))
    assert g.order == 2


def test_gab_group_iso_is_multiplicative():
    g = gab_group(F5, (1, 1), (1, 2))
    for m1 in g.elements:
        for m2 in g.elements:
            assert g.iso_image(multiply(m1, m2)) == \
                F5.mul(g.iso_image(m1), g.iso_image(m2))
    assert sorted(g.iso_image(m) for m in g.elements) == [1, 2, 3, 4]


def test_gab_group_errors():
    with pytest.raises(MatrixError):
        gab_group(F5, (1, 0), (0, 1))
    with pytest.raises(MatrixError):
        gab_group(QQ, (1, 1), (1, 2))


# -- the universe ----------------------------------------------------------------

def test_universe_counts():
    u2 = rank1_universe(2, 2)
    assert len(u2.elements) == 10 and u2.elements[0].is_zero
    u3 = rank1_universe(2, 3)
    assert len(u3.elements) == 33


def test_universe_associative_exhaustive_f2():
    assert is_associative(rank1_universe(2, 2).table)


def test_universe_idempotents_match_pairing_count():
    u = rank1_universe(2, 3)
    nonzero_pairing_pairs = sum(
        1 for a, b, s, order in u.groups)
    # zero is idempotent; every nonzero idempotent comes from one direction
    # pair with nonzero pairing
    assert len(u.idempotents) == nonzero_pairing_pairs + 1
    assert 0 in u.idempotents


def test_universe_group_orders():
    for p in (2, 3, 5):
        u = rank1_universe(2, p)
        assert u.groups and all(order == p - 1
                                for _, _, _, order in u.groups)


def test_universe_cap():
    with pytest.raises(MatrixError):
        rank1_universe(3, 5)
    with pytest.raises(MatrixError):
        rank1_universe(2, 31)


def test_universe_size_is_checked_before_primality(monkeypatch):
    # p < 2 is left to GF, whose messages stay as they were
    for p in (0, 1):
        with pytest.raises(FieldError, match=f"^{p} is not prime$"):
            rank1_universe(2, p)
    # the count is arithmetic, so an oversized p, prime or not, is refused
    # without the trial division GF(p) would run
    def no_field(p):
        raise AssertionError("GF called before the size check")
    monkeypatch.setattr("semilab.rank1.GF", no_field)
    for p in (100000000000031, 1000):
        with pytest.raises(MatrixError, match="exceeds the cap of 512$"):
            rank1_universe(1, p)


def test_universe_unprintable_size_is_refused():
    # a p or an n with more digits than an int may print is not named
    for n, p in ((2, 10**5000), (10**5000, 2)):
        with pytest.raises(MatrixError, match=(
                "^the count of nonzero rank-1 matrices exceeds the cap of "
                "512$")):
            rank1_universe(n, p)


def test_field_unprintable_non_prime_is_refused():
    # rank1_universe leaves p < 2 to GF, whose refusal does not name a p
    # with more digits than an int may print
    with pytest.raises(FieldError, match="^the field size is not prime$"):
        rank1_universe(2, -10**5000)


UNIVERSES = [(1, 5), (1, 11), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]


@pytest.mark.parametrize("n,p", UNIVERSES)
def test_universe_table_matches_multiply(n, p):
    # the table is built by index arithmetic; multiply is the reference
    u = rank1_universe(n, p)
    assert u.table == table_from_product(u.elements, multiply)


def test_universe_json_shape():
    j = rank1_universe(2, 2).to_json()
    assert j["field"] == {"p": 2}
    assert j["element_count"] == 10
    assert j["elements"][0] == {"zero": True}
    assert len(j["table"]["table"]) == 10


@pytest.mark.parametrize("n,p", UNIVERSES)
def test_universe_groups_match_gab_group(n, p):
    # the universe checks each group on its own table; gab_group, which
    # multiplies matrix objects, is the reference
    u = rank1_universe(n, p)
    index = {m: k for k, m in enumerate(u.elements)}
    for a, b, s, order in u.groups:
        g = gab_group(u.field, a, b)
        assert (g.pairing, g.order) == (s, order)
        h = [index[m] for m in g.elements]
        for x, m1 in zip(h, g.elements):
            for y, m2 in zip(h, g.elements):
                z = u.table.rows[x][y]
                assert z in h and u.elements[z] == multiply(m1, m2)


def test_universe_group_check_uses_its_own_pairing(monkeypatch):
    # the table's scalars and the pairing the group check expects are
    # computed apart, so a wrong pairing (2s, nonzero exactly when s is)
    # cannot pass
    monkeypatch.setattr("semilab.rank1.pairing",
                        lambda field, a, b: F5.mul(2, pairing(field, a, b)))
    with pytest.raises(MatrixError, match="products left the candidate group"):
        rank1_universe(2, 5)
