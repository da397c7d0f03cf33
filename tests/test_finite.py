import json
import random
from itertools import chain, permutations, product
from math import factorial

import pytest

from semilab import finite
from semilab.finite import (CayleyTable, DecompositionError, TableError,
                            _first_failure, _generators,
                            _scan_associativity, associativity_failure,
                            check_laws, closure, decompose_right_group,
                            enumerate_semigroups, identity_of,
                            is_associative, is_group,
                            semigroup_representatives, table_from_product)
from semilab.rank1 import rank1_universe


def cyclic(n):
    return CayleyTable(tuple(tuple((i + j) % n for j in range(n))
                             for i in range(n)))


LEFT_ZERO2 = CayleyTable(((0, 0), (1, 1)))
RIGHT_ZERO2 = CayleyTable(((0, 1), (0, 1)))


# -- tables -----------------------------------------------------------------

def test_table_validation():
    with pytest.raises(TableError):
        CayleyTable(((0, 1), (0,)))
    with pytest.raises(TableError):
        CayleyTable(((0, 2), (0, 1)))
    with pytest.raises(TableError):
        CayleyTable(((False, True), (True, False)))
    with pytest.raises(TableError):
        CayleyTable(((0, 1), (1, 0.0)))
    for obj in ({"n": 2, "table": 5}, {"n": 2, "table": [1, 2]},
                {"n": 1, "table": [None]}, {"n": 1, "table": [(0,)]},
                {"n": 2, "table": [[False, True], [True, False]]},
                {"n": True, "table": [[0]]}, {"n": 1.0, "table": [[0]]}):
        with pytest.raises(TableError):
            CayleyTable.from_json(obj)


def test_table_json_round_trip():
    t = cyclic(3)
    j = t.to_json()
    assert j == {"n": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    assert CayleyTable.from_json(json.loads(json.dumps(j))) == t
    with pytest.raises(TableError):
        CayleyTable.from_json({"table": [[0]]})


# -- closure ----------------------------------------------------------------

def test_closure_identity_only():
    t, elems = closure([""], lambda x, y: x + y)
    assert t.n == 1 and elems == [""]


def test_closure_two_cycle():
    swap = (1, 0)
    t, elems = closure([swap], lambda p, q: tuple(p[i] for i in q))
    assert t.n == 2 and is_group(t)
    assert elems[0] == swap


def test_closure_discovery_order_and_cap():
    t, elems = closure([1], lambda x, y: (x + y) % 5)
    assert elems == [1, 2, 3, 4, 0]
    with pytest.raises(TableError):
        closure([1], lambda x, y: x + y, max_size=10)


def test_closure_of_rank1_generators():
    # two outer products of unit vectors over GF(2) generate a subsemigroup
    # of the full rank <= 1 universe
    from semilab.fields import GF
    from semilab.rank1 import make_rank1, multiply
    F2 = GF(2)
    g1 = make_rank1(F2, (1, 0), (0, 1))
    g2 = make_rank1(F2, (0, 1), (1, 0))
    t, elems = closure([g1, g2], multiply)
    assert t.n <= 10
    assert is_associative(t)
    assert set(elems) <= set(rank1_universe(2, 2).elements)


# -- associativity ----------------------------------------------------------

def test_is_associative_examples():
    assert is_associative(cyclic(3))
    assert is_associative(LEFT_ZERO2)
    bad = CayleyTable(((1, 0), (0, 0)))
    assert not is_associative(bad)
    assert associativity_failure(bad) == (0, 0, 1)


def test_is_associative_matches_brute_force_n2():
    for flat in product(range(2), repeat=4):
        t = CayleyTable((tuple(flat[:2]), tuple(flat[2:])))
        brute = all(
            t.rows[t.rows[x][y]][z] == t.rows[x][t.rows[y][z]]
            for x in range(2) for y in range(2) for z in range(2))
        assert is_associative(t) == brute


def brute_first_failure(t):
    """The lexicographically first (x, y, z) with (xy)z != x(yz), or None."""
    r = t.rows
    rng = range(t.n)
    return next(((x, y, z) for x in rng for y in rng for z in rng
                 if r[r[x][y]][z] != r[x][r[y][z]]), None)


def test_associativity_failure_is_first_failing_triple():
    # the CLI's "not associative: (x y) z != x (y z)" line prints this triple
    rnd = random.Random(14)
    # at order 1 the scan's itemgetter returns an entry, not a row
    tables = [CayleyTable(((0,),)), cyclic(5), cyclic(6)]
    tables += [CayleyTable(tuple(tuple(rnd.randrange(n) for _ in range(n))
                                 for _ in range(n)))
               for n in range(1, 7) for _ in range(200)]
    # one changed entry of an associative table: the first failure can lie
    # anywhere in the scan, not only near (0, 0, 0)
    for base in (*enumerate_semigroups(3), *[cyclic(5), cyclic(6)] * 40):
        rows = [list(row) for row in base.rows]
        n = base.n
        x, y = rnd.randrange(n), rnd.randrange(n)
        rows[x][y] = rnd.randrange(n)
        tables.append(CayleyTable(tuple(map(tuple, rows))))
    answers = [brute_first_failure(t) for t in tables]
    assert None in answers and answers.count(None) < len(answers)
    for t, want in zip(tables, answers):
        assert associativity_failure(t) == want


def assert_light_matches_full(tables):
    """Light's test on a generating set gives the full scan's answer, the
    first failing triple or None, on every table; returns the answers."""
    answers = []
    for t in tables:
        want = _first_failure(t.rows, range(t.n))
        assert _scan_associativity(t) == want, t.rows
        answers.append(want)
    return answers


def one_cell_changed(t, rnd):
    rows = [list(row) for row in t.rows]
    n = t.n
    x, y = rnd.randrange(n), rnd.randrange(n)
    rows[x][y] = rnd.choice([v for v in range(n) if v != rows[x][y]])
    return CayleyTable(tuple(map(tuple, rows)))


def test_light_scan_matches_full_scan_on_every_small_magma():
    # n = 0 and n = 1 go straight to the full scan
    tables = [CayleyTable(()), CayleyTable(((0,),))]
    for n in (2, 3):
        tables += [CayleyTable(tuple(flat[i:i + n]
                                     for i in range(0, n * n, n)))
                   for flat in product(range(n), repeat=n * n)]
    assert len(tables) == 2 + 16 + 19_683
    answers = assert_light_matches_full(tables)
    assert answers[:2] == [None, None]
    # 8 of the order-2 magmas and 113 of the order-3 ones are semigroups
    assert answers.count(None) == 2 + 8 + 113


def test_light_scan_matches_full_scan_on_semigroups_and_near_misses():
    rnd = random.Random(24)
    tables = list(enumerate_semigroups(4))
    tables += [one_cell_changed(t, rnd) for t in tables]
    tables += semigroup_representatives(5)
    for n, p in ((2, 3), (2, 5), (3, 3)):
        t = rank1_universe(n, p).table
        tables += [t, one_cell_changed(t, rnd), one_cell_changed(t, rnd)]
    answers = assert_light_matches_full(tables)
    assert answers.count(None) >= 3492 + 1915 + 3
    # failures whose y is no generator: Light's test finds the table
    # non-associative at another y, and the full scan names the first
    assert any(bad[1] not in _generators(t.rows)
               for t, bad in zip(tables, answers) if bad is not None)


def test_light_scan_on_bands_where_every_element_is_a_generator():
    # x y = x (left zero) and x y = y (right zero): no product reaches a
    # new element, so the generating set is all of S and the test is one
    # full scan of rows
    n = 40
    left = CayleyTable(tuple((x,) * n for x in range(n)))
    right = CayleyTable((tuple(range(n)),) * n)
    for t in (left, right):
        assert _generators(t.rows) == list(range(n))
    assert assert_light_matches_full([left, right]) == [None, None]


def test_generators_generate():
    # the greedy set is small on the rank-1 universes, and closing it under
    # the product gives every element
    for n, p, count in ((1, 11, 3), (2, 3, 9), (2, 5, 13)):
        rows = rank1_universe(n, p).table.rows
        gens = _generators(rows)
        assert len(gens) == count and gens == sorted(gens)
        reached = set(gens)
        while True:
            more = {rows[m][g] for m in reached for g in gens} - reached
            if not more:
                break
            reached |= more
        assert reached == set(range(len(rows)))


# -- laws -------------------------------------------------------------------

def test_laws_group_all_hold():
    rep = check_laws(cyclic(3))
    assert rep.left_unique and rep.right_unique
    assert rep.left_solvable and rep.right_solvable
    assert all(c == 1 for row in rep.left_unlimited for c in row)
    assert all(c == 1 for row in rep.right_unlimited for c in row)


def test_laws_left_zero():
    rep = check_laws(LEFT_ZERO2)
    # xy = x: composing on the right changes nothing
    assert rep.left_unique and not rep.right_unique
    assert rep.left_solvable and not rep.right_solvable
    assert rep.left_unlimited == ((1, 1), (1, 1))
    assert rep.right_unlimited == ((2, 0), (0, 2))


def test_laws_right_zero_mirrors_left_zero():
    left = check_laws(LEFT_ZERO2)
    right = check_laws(RIGHT_ZERO2)
    assert right.right_unique == left.left_unique
    assert right.left_unique == left.right_unique
    assert right.right_unlimited == left.left_unlimited
    assert right.left_unlimited == left.right_unlimited


def test_laws_reject_non_associative():
    with pytest.raises(TableError):
        check_laws(CayleyTable(((1, 0), (0, 0))))


def test_transpose_duality_all_small_semigroups():
    for n in (1, 2, 3):
        for t in enumerate_semigroups(n):
            rep = check_laws(t)
            mirror = check_laws(t.transpose())
            assert mirror.left_unique == rep.right_unique
            assert mirror.right_unique == rep.left_unique
            assert mirror.left_unlimited == rep.right_unlimited
            assert mirror.right_unlimited == rep.left_unlimited


def test_laws_counts_match_definition():
    # counts[a][b] literally counts solutions of X a = b / a X = b, and the
    # four booleans are their literal equation schemas
    for t in enumerate_semigroups(3):
        rep = check_laws(t)
        rng = range(3)
        for a in rng:
            for b in rng:
                assert rep.left_unlimited[a][b] == sum(
                    1 for x in rng if t.rows[x][a] == b)
                assert rep.right_unlimited[a][b] == sum(
                    1 for x in rng if t.rows[a][x] == b)
        assert rep.left_unique == all(
            x == y for a in rng for x in rng for y in rng
            if t.rows[x][a] == t.rows[y][a])
        assert rep.right_unique == all(
            x == y for a in rng for x in rng for y in rng
            if t.rows[a][x] == t.rows[a][y])
        assert rep.left_solvable == all(
            any(t.rows[x][a] == b for x in rng) for a in rng for b in rng)
        assert rep.right_solvable == all(
            any(t.rows[a][x] == b for x in rng) for a in rng for b in rng)


# -- groups -----------------------------------------------------------------

def test_is_group_examples():
    assert is_group(cyclic(4))
    assert not is_group(LEFT_ZERO2)
    klein = table_from_product(
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        lambda p, q: ((p[0] + q[0]) % 2, (p[1] + q[1]) % 2))
    assert is_group(klein)
    assert identity_of(klein) == 0


def test_identity_of():
    assert identity_of(cyclic(3)) == 0
    assert identity_of(LEFT_ZERO2) is None


# -- right groups -----------------------------------------------------------

def test_decompose_group_trivial_classes():
    d = decompose_right_group(cyclic(2))
    assert d.group_part.n == 2 and len(d.idempotents) == 1
    assert d.reconstructs(cyclic(2))


def test_decompose_product_construction():
    elems = [(g, r) for g in range(2) for r in range(2)]
    t = table_from_product(elems, lambda p, q: ((p[0] + q[0]) % 2, q[1]))
    d = decompose_right_group(t)
    assert d.group_part.n == 2
    assert len(d.idempotents) == 2
    assert sorted(set(d.classes)) == [0, 1]
    assert is_group(d.group_part)
    assert d.reconstructs(t)


def test_decompose_rejects_left_zero_naming_unsolvable_pair():
    # in x y = x the equation a X = b has no solution for b != a
    with pytest.raises(DecompositionError) as exc:
        decompose_right_group(LEFT_ZERO2)
    assert exc.value.law == "right-unlimited"
    assert exc.value.pair == (0, 1)
    # x y = -x - y mod 3 is a quasigroup, so every equation is solvable,
    # but it is not associative
    quasi = CayleyTable(((0, 2, 1), (2, 1, 0), (1, 0, 2)))
    assert not is_associative(quasi)
    with pytest.raises(TableError, match="requires an associative table"):
        decompose_right_group(quasi)


def test_right_zero_itself_is_a_right_group():
    d = decompose_right_group(RIGHT_ZERO2)
    assert d.group_part.n == 1 and len(d.idempotents) == 2
    assert d.reconstructs(RIGHT_ZERO2)


# -- enumeration ------------------------------------------------------------

def brute_count(n):
    count = 0
    for flat in product(range(n), repeat=n * n):
        t = CayleyTable(tuple(tuple(flat[i * n:(i + 1) * n])
                              for i in range(n)))
        if is_associative(t):
            count += 1
    return count


def test_enumerate_counts_small():
    assert sum(1 for _ in enumerate_semigroups(1)) == 1
    assert sum(1 for _ in enumerate_semigroups(2)) == brute_count(2) == 8


def test_enumerate_order3_matches_brute_filter():
    tables = list(enumerate_semigroups(3))
    assert len(tables) == brute_count(3) == 113
    assert len(set(t.rows for t in tables)) == len(tables)
    assert all(is_associative(t) for t in tables)


def test_generated_tables_pass_the_public_check():
    # each table the generators build must equal the table the checking
    # constructor makes of its rows
    for t in chain(*map(enumerate_semigroups, (1, 2, 3, 4)),
                   semigroup_representatives(5)):
        checked = CayleyTable(t.rows)
        assert t == checked and hash(t) == hash(checked)
        assert type(t.rows) is tuple
        assert all(type(row) is tuple for row in t.rows)


def test_searched_tables_pass_the_public_check(monkeypatch):
    # a search that produced an entry out of range would be refused by
    # CayleyTable's own check, not handed on as a table; -1 survives the
    # conjugations, which index permutations with it
    monkeypatch.setattr(finite, "_lex_least_tables",
                        lambda n: iter([(0, 0, 0, -1)]))
    with pytest.raises(TableError):
        list(enumerate_semigroups(2))
    with pytest.raises(TableError):
        next(semigroup_representatives(2))


@pytest.mark.parametrize("entry", [2, 255, 256, 10**6])
def test_searched_entries_past_the_order_refused(monkeypatch, entry):
    # enumerate conjugates the tables as bytes: an entry from n up to 255
    # passes the relabelling unchanged and one from 256 on is no byte, and
    # both are refused as TableError
    monkeypatch.setattr(finite, "_lex_least_tables",
                        lambda n: iter([(0, 0, 0, entry)]))
    with pytest.raises(TableError):
        list(enumerate_semigroups(2))


def test_enumerate_is_every_conjugate_of_the_representatives():
    # reference: each representative T conjugated by every permutation p
    # as tuples, cell (i, j) of p T p^-1 holding p[T[q i][q j]] with
    # q = p^-1, deduplicated and sorted
    for n, count in ((1, 1), (2, 8), (3, 113), (4, 3492)):
        rng = range(n)
        labelled = set()
        for t in semigroup_representatives(n):
            for p in permutations(rng):
                q = sorted(rng, key=p.__getitem__)
                labelled.add(tuple(tuple(p[t.rows[q[i]][q[j]]] for j in rng)
                                   for i in rng))
        assert len(labelled) == count
        assert [t.rows for t in enumerate_semigroups(n)] == sorted(labelled)


def full_rescan_semigroups(n):
    """Reference enumerator: after each cell it rescans every triple whose
    four products are decided, not only those that read the new cell."""
    size = n * n
    t = [-1] * size
    rng = range(n)

    def consistent():
        for x in rng:
            for y in rng:
                xy = t[x * n + y]
                if xy < 0:
                    continue
                for z in rng:
                    yz = t[y * n + z]
                    if yz < 0:
                        continue
                    left = t[xy * n + z]
                    right = t[x * n + yz]
                    if left >= 0 and right >= 0 and left != right:
                        return False
        return True

    def fill(cell):
        if cell == size:
            yield tuple(tuple(t[i * n:(i + 1) * n]) for i in rng)
            return
        for v in rng:
            t[cell] = v
            if consistent():
                yield from fill(cell + 1)
        t[cell] = -1

    yield from fill(0)


def test_enumerate_in_lexicographic_order():
    # row-major filling with ascending values lists the associative tables
    # in the lexicographic order of their flattened entries
    for n in (1, 2, 3):
        every = [tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
                 for flat in product(range(n), repeat=n * n)]
        brute = [rows for rows in every
                 if brute_first_failure(CayleyTable(rows)) is None]
        assert [t.rows for t in enumerate_semigroups(n)] == brute
    assert ([t.rows for t in enumerate_semigroups(4)]
            == list(full_rescan_semigroups(4)))


def test_enumerate_rejects_large_orders():
    with pytest.raises(TableError):
        list(enumerate_semigroups(5))
    with pytest.raises(TableError):
        list(enumerate_semigroups(0))


# -- representatives up to isomorphism ---------------------------------------

def conjugate(rows, p):
    """p T p^-1: x_i x_j = x_k becomes x_p(i) x_p(j) = x_p(k)."""
    n = len(rows)
    out = [[None] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, k in enumerate(row):
            out[p[i]][p[j]] = p[k]
    return tuple(map(tuple, out))


def test_representative_counts_match_published_sequences():
    # classes up to isomorphism (OEIS A027851), and the labelled tables
    # they stand for, n!/|Aut T| each (OEIS A023814), with Aut T counted
    # by brute force over every permutation
    classes = {1: 1, 2: 5, 3: 24, 4: 188, 5: 1915}
    labelled = {1: 1, 2: 8, 3: 113, 4: 3492, 5: 183732}
    for n in classes:
        perms = list(permutations(range(n)))
        reps = list(semigroup_representatives(n))
        assert len(reps) == classes[n]
        total = 0
        for t in reps:
            aut = sum(1 for p in perms if conjugate(t.rows, p) == t.rows)
            total += factorial(n) // aut
        assert total == labelled[n]


def test_representatives_are_least_and_pairwise_non_isomorphic():
    for n in (1, 2, 3, 4):
        perms = list(permutations(range(n)))
        reps = [t.rows for t in semigroup_representatives(n)]
        # strictly increasing, so distinct; and each is the least of its
        # conjugates, so two isomorphic representatives would be one table
        assert all(a < b for a, b in zip(reps, reps[1:]))
        for rows in reps:
            assert brute_first_failure(CayleyTable(rows)) is None
            assert rows == min(conjugate(rows, p) for p in perms)


def test_representatives_reject_orders_outside_cap():
    for n in (0, 6, 7):
        with pytest.raises(TableError, match="orders 1 to 5 only"):
            next(semigroup_representatives(n))
