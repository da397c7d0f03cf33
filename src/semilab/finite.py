"""Finite magmas as Cayley tables: associativity, the four reversibility
laws, group detection, right-group decomposition, and exhaustive generation
of all small associative tables (the brute-force oracle for everything else).

Generation is orderly: one backtracking search finds, for each isomorphism
class, the table whose flattened entries are least among its conjugates
(``semigroup_representatives``, orders up to 5).  The labelled tables
(``enumerate_semigroups``, orders up to 4) are rebuilt from these by
conjugating each with every permutation, deduplicating and sorting.

Law naming follows the classical reversibility terminology, which is
handedness-reversed relative to modern cancellativity; every report field is
therefore documented by its literal equation schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from operator import itemgetter


class TableError(ValueError):
    """Invalid table, parameters out of range, or unmet precondition."""


class DecompositionError(TableError):
    """Right-group hypotheses fail; carries the law name and the first
    counterexample pair."""

    def __init__(self, law: str, pair: tuple, message: str):
        super().__init__(message)
        self.law = law
        self.pair = pair


@dataclass(frozen=True)
class CayleyTable:
    """An n x n multiplication table; rows[i][j] is the index of x_i * x_j."""

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise TableError("table must be square")
            for v in row:
                # not isinstance: bool is an int subclass, yet no entry
                if not (type(v) is int and 0 <= v < n):
                    raise TableError(f"entry {v!r} is not an int in [0, {n})")

    @classmethod
    def _trusted(cls, rows: tuple) -> "CayleyTable":
        """A table on ``rows``, square tuples of int entries in range by
        construction, built without ``__post_init__``'s per-entry check."""
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def _associativity_failure(self):
        return _scan_associativity(self)

    def mul(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def transpose(self) -> "CayleyTable":
        return CayleyTable(tuple(zip(*self.rows)))

    def to_json(self) -> dict:
        return {"n": self.n, "table": [list(row) for row in self.rows]}

    @staticmethod
    def from_json(obj) -> "CayleyTable":
        try:
            n = obj["n"]
            rows = obj["table"]
        except (TypeError, KeyError):
            raise TableError('table JSON needs fields "n" and "table"') from None
        if not (isinstance(rows, list)
                and all(isinstance(row, list) for row in rows)):
            raise TableError('"table" must be a list of lists')
        if type(n) is not int or len(rows) != n:
            raise TableError(f'"n" is {n!r}, but "table" has {len(rows)} rows')
        return CayleyTable(tuple(tuple(row) for row in rows))


def table_from_product(elements, mult) -> CayleyTable:
    """Tabulate an external product over a fixed element list."""
    index = {x: i for i, x in enumerate(elements)}
    return CayleyTable(tuple(tuple(index[mult(x, y)] for y in elements)
                             for x in elements))


def closure(generators, mult, max_size: int = 4096):
    """Least set closed under ``mult`` containing the generators, numbered by
    discovery order, with its full table.  Returns (table, elements)."""
    elements = []
    index = {}
    for g in generators:
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
    frontier = list(elements)
    while frontier:
        fresh = []
        for x in frontier:
            for y in list(elements):
                for z in (mult(x, y), mult(y, x)):
                    if z not in index:
                        if len(elements) >= max_size:
                            raise TableError(
                                f"closure exceeded cap of {max_size} elements")
                        index[z] = len(elements)
                        elements.append(z)
                        fresh.append(z)
        frontier = fresh
    return table_from_product(elements, mult), elements


def associativity_failure(t: CayleyTable):
    """First triple (x, y, z) with (xy)z != x(yz), or None.  The scan runs
    once per table; later checks of the same table reuse its answer."""
    return t._associativity_failure


def _scan_associativity(t: CayleyTable):
    """Light's test: the table is associative when (xy)z = x(yz) holds for
    every x, z and every y in a generating set A (see ``_generators``),
    because the set T of y for which it holds is closed under the product.
    For a, b in T and any x, z:
        (x(ab))z = ((xa)b)z      a in T, at (x, b)
                 = (xa)(bz)      b in T, at (xa, z)
                 = x(a(bz))      a in T, at (x, bz)
                 = x((ab)z)      b in T, at (a, z)
    T holds A, so it holds everything A generates: all of S.  Only the
    rows of y in A are compared, as in the full scan; if one differs, the
    full scan runs to name the lexicographically first failing triple.
    n <= 1 goes to the full scan, which alone handles that case."""
    rows = t.rows
    if len(rows) <= 1:
        return _full_associativity_scan(t)
    for y in _generators(rows):
        gy = itemgetter(*rows[y])
        for rx in rows:
            if rows[rx[y]] != gy(rx):
                return _full_associativity_scan(t)
    return None


def _generators(rows) -> list:
    """A generating set of the table, chosen greedily in index order: an
    element becomes a generator when the generators before it have not
    reached it.  The reached set is the generators and m g for each reached
    m and generator g; each (m, g) product is read once, so the cost is
    O(n |A|) table reads."""
    reached = [False] * len(rows)
    done = []               # reached elements, times every generator so far
    gens = []
    for g in range(len(rows)):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        fresh = [g]
        for m in done:      # the older elements times the new generator
            p = rows[m][g]
            if not reached[p]:
                reached[p] = True
                fresh.append(p)
        while fresh:
            m = fresh.pop()
            done.append(m)
            rm = rows[m]
            for h in gens:
                p = rm[h]
                if not reached[p]:
                    reached[p] = True
                    fresh.append(p)
    return gens


def _full_associativity_scan(t: CayleyTable):
    """Compare, for each (x, y), the row z -> (xy)z, which is rows[xy], with
    the row z -> x(yz), which ``itemgetter(*rows[y])`` reads out of rows[x]
    in C.  Equal rows have no failing z, so the Python z-loop runs only where
    they differ: at the first failing (x, y), to name its first z.  At n = 1
    itemgetter returns an entry, not a row, so the comparison always differs
    there and the z-loop alone decides."""
    rows = t.rows
    n = t.n
    rng = range(n)
    g = [itemgetter(*row) for row in rows]
    for x, rx in enumerate(rows):
        for y in rng:
            rxy = rows[rx[y]]
            if rxy != g[y](rx):
                ry = rows[y]
                for z in rng:
                    if rxy[z] != rx[ry[z]]:
                        return (x, y, z)
    return None


def is_associative(t: CayleyTable) -> bool:
    """Whether (xy)z = x(yz) holds for all triples."""
    return associativity_failure(t) is None


@dataclass(frozen=True)
class LawReport:
    """The four reversibility laws on one finite table.

    left_unique:     xa = ya  implies  x = y   (right cancellation)
    right_unique:    ax = ay  implies  x = y   (left cancellation)
    left_unlimited:  counts[a][b] = #{X : X a = b}
    right_unlimited: counts[a][b] = #{X : a X = b}

    A finite table cannot have infinitely many solutions, so the unlimited
    laws are reported as solution-count matrices; ``solvable`` (all counts
    >= 1) is the finite surrogate for them.
    """

    left_unique: bool
    right_unique: bool
    left_unlimited: tuple
    right_unlimited: tuple
    left_solvable: bool
    right_solvable: bool

    def to_json(self) -> dict:
        return {
            "left_unique": self.left_unique,
            "right_unique": self.right_unique,
            "left_unlimited": [list(r) for r in self.left_unlimited],
            "right_unlimited": [list(r) for r in self.right_unlimited],
            "left_solvable": self.left_solvable,
            "right_solvable": self.right_solvable,
            "unlimited_note": "finite table: solution counts reported; "
                              "solvable (all counts >= 1) is the finite "
                              "surrogate for the unlimited laws",
        }


def _solution_counts(t: CayleyTable) -> tuple:
    """(left, right) with left[a][b] = #{X : X a = b} and right[a][b] =
    #{X : a X = b}, both filled in one pass over the table."""
    n = t.n
    left = [[0] * n for _ in range(n)]
    right = [[0] * n for _ in range(n)]
    for row, counts in zip(t.rows, right):
        for a, b in enumerate(row):
            left[a][b] += 1
            counts[b] += 1
    return tuple(map(tuple, left)), tuple(map(tuple, right))


def check_laws(t: CayleyTable) -> LawReport:
    """Evaluate all four laws; rejects non-associative tables.  Unique means
    no equation has two solutions, solvable that none has zero."""
    if not is_associative(t):
        raise TableError("check_laws requires an associative table")
    left, right = _solution_counts(t)
    return LawReport(
        max(map(max, left), default=0) <= 1,
        max(map(max, right), default=0) <= 1, left, right,
        min(map(min, left), default=1) >= 1,
        min(map(min, right), default=1) >= 1)


def identity_of(t: CayleyTable):
    """The two-sided identity's index, or None."""
    n = t.n
    for e in range(n):
        if all(t.rows[e][x] == x == t.rows[x][e] for x in range(n)):
            return e
    return None


def is_group(t: CayleyTable) -> bool:
    """True iff an identity exists and every element has a two-sided inverse
    (the table is assumed associative)."""
    e = identity_of(t)
    if e is None:
        return False
    n = t.n
    return all(any(t.rows[x][y] == e == t.rows[y][x] for y in range(n))
               for x in range(n))


@dataclass(frozen=True)
class RightGroupDecomposition:
    """S as (group) x (right-zero classes): every element factors uniquely as
    (group part, idempotent class), and the product works coordinatewise with
    the class taken from the right factor."""

    group_part: CayleyTable
    group_elements: tuple       # indices of S forming the subgroup S e0
    idempotents: tuple          # indices of the idempotents, ascending
    classes: tuple              # element index -> position in idempotents
    witness: tuple              # element index -> (group position, class)

    def reconstructs(self, t: CayleyTable) -> bool:
        """Re-multiply through the factorization and compare with t."""
        g_of = {s: self.group_elements[g] for s, (g, _) in enumerate(self.witness)}
        e_of = {s: self.idempotents[c] for s, (_, c) in enumerate(self.witness)}
        for s in range(t.n):
            for u in range(t.n):
                g = t.rows[g_of[s]][g_of[u]]
                if t.rows[s][u] != t.rows[g][e_of[u]]:
                    return False
        return True


def decompose_right_group(t: CayleyTable) -> RightGroupDecomposition:
    """Split a right group (a X = b always solvable, ax = ay implies x = y)
    into group x right-zero parts; raises DecompositionError naming the first
    violated hypothesis otherwise."""
    if not is_associative(t):
        raise TableError("decompose_right_group requires an associative table")
    # each row of counts sums to n, so with no count 0 every count is 1:
    # a X = b always solvable already gives ax = ay implies x = y
    for a, row in enumerate(_solution_counts(t)[1]):
        if 0 in row:
            b = row.index(0)
            raise DecompositionError(
                "right-unlimited", (a, b),
                f"a X = b has no solution: a={a}, b={b}")

    rng = range(t.n)
    idempotents = tuple(e for e in rng if t.rows[e][e] == e)
    if not idempotents:
        raise DecompositionError("structure", (0, 0), "no idempotent exists")
    classes = []
    for s in rng:
        owners = [k for k, e in enumerate(idempotents) if t.rows[s][e] == s]
        if len(owners) != 1:
            raise DecompositionError(
                "structure", (s, len(owners)),
                f"element {s} lies in {len(owners)} right-zero classes")
        classes.append(owners[0])
    e0 = idempotents[0]
    group_elements = tuple(s for s in rng if t.rows[s][e0] == s)
    lookup = {s: k for k, s in enumerate(group_elements)}
    group_part = CayleyTable(tuple(
        tuple(lookup[t.rows[x][y]] for y in group_elements)
        for x in group_elements))
    if not is_group(group_part):
        raise DecompositionError("structure", (e0, e0),
                                 "S e0 is not a group")
    witness = tuple((lookup[t.rows[s][e0]], classes[s]) for s in rng)
    decomp = RightGroupDecomposition(group_part, group_elements, idempotents,
                                     tuple(classes), witness)
    if not decomp.reconstructs(t):
        raise DecompositionError("structure", (0, 0),
                                 "factorization failed to reproduce the table")
    return decomp


def semigroup_representatives(n: int):
    """Yield one associative table on n elements from each isomorphism class:
    the one whose flattened entries are lexicographically least among its
    conjugates sigma T sigma^-1, in lexicographic order.  This is orderly
    generation (Distler, 2010): the search fills cells in row-major order
    with associativity pruning, and drops a partial table as soon as some
    conjugate is smaller on the cells decided in both, since then no
    completion is least.  Hard cap n <= 5."""
    if not 1 <= n <= 5:
        raise TableError(
            "semigroup_representatives supports orders 1 to 5 only")
    for flat in _lex_least_tables(n):
        yield _table_of(flat, n)


def enumerate_semigroups(n: int):
    """Yield every associative table on n elements exactly once (raw, not up
    to isomorphism), in the lexicographic order of their flattened entries:
    the conjugates sigma T sigma^-1 of the representatives T that
    ``semigroup_representatives`` finds, over every permutation sigma,
    deduplicated and sorted.  Hard cap n <= 4."""
    if not 1 <= n <= 4:
        raise TableError("enumerate_semigroups supports orders 1 to 4 only")
    representatives = list(_lex_least_tables(n))
    labelled = set(representatives)
    # n = 1 has no permutation but the identity, so itemgetter always gets
    # at least two cells and returns a tuple
    for src, p in _conjugations(n):
        cells = itemgetter(*src)
        for flat in representatives:
            labelled.add(tuple(map(p.__getitem__, cells(flat))))
    for flat in sorted(labelled):
        yield _table_of(flat, n)


def _table_of(flat, n: int) -> CayleyTable:
    # the search fills every cell with an int in range(n)
    return CayleyTable._trusted(tuple(flat[i:i + n]
                                      for i in range(0, n * n, n)))


def _conjugations(n: int) -> list:
    """(src, p) for each permutation p of range(n) other than the identity.
    Cell (i, j) of the conjugate p T p^-1 holds p[T[p^-1 i][p^-1 j]], so on
    flattened tables its cell c holds p[T[src[c]]]."""
    identity = tuple(range(n))
    out = []
    for p in permutations(identity):
        if p != identity:
            q = sorted(identity, key=p.__getitem__)     # q = p^-1
            out.append((tuple(qi * n + qj for qi in q for qj in q), p))
    return out


def _lex_least_tables(n: int):
    """The one backtracking search: every flattened associative table on n
    elements that is lexicographically least among its conjugates, in
    lexicographic order."""
    size = n * n
    t = [-1] * size
    rng = range(n)
    bases = range(0, size, n)

    def consistent_after(cell):
        # the table was consistent before t[cell] was set, so only a triple
        # that reads this cell can fail.  It reads it as xy, as yz, as (xy)z
        # or as x(yz), one pass each, O(n^2) work in all; a triple with an
        # undecided product (-1) is checked once that product is filled
        i, j = divmod(cell, n)
        v = t[cell]
        ib = i * n
        jb = j * n
        vb = v * n
        for z in rng:                           # xy: x = i, y = j
            yz = t[jb + z]
            if yz >= 0:
                left = t[vb + z]
                right = t[ib + yz]
                if left >= 0 and right >= 0 and left != right:
                    return False
        for xb in bases:                        # yz: y = i, z = j
            xy = t[xb + i]
            if xy >= 0:
                left = t[xy * n + j]
                right = t[xb + v]
                if left >= 0 and right >= 0 and left != right:
                    return False
        for xb in bases:                        # (xy)z = v: xy = i, z = j
            for y in rng:
                if t[xb + y] == i:
                    yz = t[y * n + j]
                    if yz >= 0:
                        right = t[xb + yz]
                        if right >= 0 and right != v:
                            return False
        for y in rng:                           # x(yz) = v: x = i, yz = j
            xy = t[ib + y]
            if xy >= 0:
                yb = y * n
                xyb = xy * n
                for z in rng:
                    if t[yb + z] == j:
                        left = t[xyb + z]
                        if left >= 0 and left != v:
                            return False
        return True

    def still_tied(cell, tied):
        # tied holds (src, p, c) for each conjugate that equals t on cells
        # 0..c-1, all decided in both.  Compare on from c up to the new cell:
        # a conjugate larger at a cell decided in both stays larger in every
        # completion and is dropped; one smaller rules the node out (None)
        kept = []
        for src, p, c in tied:
            while c <= cell:
                s = t[src[c]]
                if s < 0:                       # undecided in the conjugate
                    kept.append((src, p, c))
                    break
                s = p[s]
                if s != t[c]:
                    if s < t[c]:
                        return None
                    break
                c += 1
            else:
                kept.append((src, p, c))
        return kept

    def fill(cell, tied):
        if cell == size:
            yield tuple(t)
            return
        for v in rng:
            t[cell] = v
            if consistent_after(cell):
                kept = still_tied(cell, tied)
                if kept is not None:
                    yield from fill(cell + 1, kept)
        t[cell] = -1

    yield from fill(0, [(src, p, 0) for src, p in _conjugations(n)])
