"""Multiplicative semigroups of rank <= 1 square matrices over exact fields.

A nonzero rank-1 matrix is kept factored as an outer product col * row^T in
a canonical gauge: the column's first nonzero entry is 1 and the row absorbs
the scale.  Equality of factored forms is then literal tuple equality.  The
zero matrix is the pair (None, None) and absorbs products.

For a column direction a and row direction b with pairing b . a != 0, the
set {lam * a b^T : lam != 0} is a group isomorphic to the multiplicative
group of the field, with identity (b . a)^{-1} a b^T; gab_group builds it
and checks the multiplication rule behind the isomorphism exhaustively, so
it is restricted to finite fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product as iproduct

from .fields import dot, is_zero_vector, scale, vector, GF
from .finite import CayleyTable


class MatrixError(ValueError):
    pass


# the most nonzero matrices rank1_universe builds: bounds its memory and time
MAX_MATRICES = 512


@dataclass(frozen=True)
class Rank1Matrix:
    field: object
    n: int
    col: tuple    # None for the zero matrix
    row: tuple    # None for the zero matrix

    def __post_init__(self):
        if self.n < 1:
            raise MatrixError("dimension must be at least 1")
        if (self.col is None) != (self.row is None):
            raise MatrixError("col and row must both be None or both vectors")
        if self.col is None:
            return
        if len(self.col) != self.n or len(self.row) != self.n:
            raise MatrixError(f"factors must have length {self.n}")
        f = self.field
        lead = next((c for c in self.col if c != f.zero), None)
        if lead is None or is_zero_vector(f, self.row):
            raise MatrixError("zero factor; use the (None, None) zero matrix")
        if lead != f.one:
            raise MatrixError("column factor not in canonical gauge")

    @property
    def is_zero(self) -> bool:
        return self.col is None

    def to_json(self) -> dict:
        if self.is_zero:
            return {"zero": True}
        sj = self.field.scalar_to_json
        return {"col": [sj(c) for c in self.col],
                "row": [sj(c) for c in self.row]}


def zero_matrix(field, n: int) -> Rank1Matrix:
    return Rank1Matrix(field, n, None, None)


def make_rank1(field, x, y) -> Rank1Matrix:
    """Canonical form of the outer product x y^T."""
    x = vector(field, x)
    y = vector(field, y)
    if not x or len(x) != len(y):
        raise MatrixError("factors must be nonempty and of equal length")
    if is_zero_vector(field, x) or is_zero_vector(field, y):
        return zero_matrix(field, len(x))
    lead = next(c for c in x if c != field.zero)
    return Rank1Matrix(field, len(x),
                       scale(field, field.inv(lead), x),
                       scale(field, lead, y))


def multiply(m1: Rank1Matrix, m2: Rank1Matrix) -> Rank1Matrix:
    """(x1 y1^T)(x2 y2^T) = (y1 . x2) x1 y2^T."""
    if m1.field != m2.field or m1.n != m2.n:
        raise MatrixError("field or dimension mismatch")
    if m1.is_zero or m2.is_zero:
        return zero_matrix(m1.field, m1.n)
    lam = dot(m1.field, m1.row, m2.col)
    if lam == m1.field.zero:
        return zero_matrix(m1.field, m1.n)
    # m1.col is already in gauge, so absorbing lam into the row keeps the
    # result canonical without renormalizing
    return Rank1Matrix(m1.field, m1.n, m1.col, scale(m1.field, lam, m2.row))


def to_dense(m: Rank1Matrix) -> tuple:
    f = m.field
    if m.is_zero:
        return tuple(tuple(f.zero for _ in range(m.n)) for _ in range(m.n))
    return tuple(tuple(f.mul(c, r) for r in m.row) for c in m.col)


def from_dense(field, rows) -> Rank1Matrix:
    """Factor a dense square matrix, or raise if its rank exceeds 1."""
    dense = tuple(vector(field, r) for r in rows)
    n = len(dense)
    if n == 0 or any(len(r) != n for r in dense):
        raise MatrixError("matrix must be square and nonempty")
    pivot = next(((i, j) for i in range(n) for j in range(n)
                  if dense[i][j] != field.zero), None)
    if pivot is None:
        return zero_matrix(field, n)
    i0, j0 = pivot
    x = tuple(dense[i][j0] for i in range(n))
    y = scale(field, field.inv(dense[i0][j0]), dense[i0])
    m = make_rank1(field, x, y)
    if to_dense(m) != dense:
        raise MatrixError("matrix has rank greater than 1")
    return m


def pairing(field, a, b):
    """The scalar b . a that controls products a b^T a b^T."""
    return dot(field, vector(field, b), vector(field, a))


def idempotent(field, a, b) -> Rank1Matrix:
    """(b . a)^{-1} a b^T, the identity of the group on directions (a, b)."""
    s = pairing(field, a, b)
    if s == field.zero:
        raise MatrixError("pairing b . a is zero; no idempotent on these "
                          "directions")
    return make_rank1(field, a, scale(field, field.inv(s), vector(field, b)))


@dataclass(frozen=True)
class GabGroup:
    """The group {lam a b^T : lam != 0} together with the scalar data that
    exhibits it as a copy of the field's multiplicative group."""

    field: object
    n: int
    a: tuple
    b: tuple
    pairing: object
    scalars: tuple          # lam values, in field.nonzero() order
    elements: tuple         # matching Rank1Matrix values
    identity_index: int

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Rank1Matrix:
        return self.elements[self.identity_index]

    def iso_image(self, m: Rank1Matrix):
        """phi(lam a b^T) = lam (b . a), an isomorphism onto F*."""
        k = self.elements.index(m)
        return self.field.mul(self.scalars[k], self.pairing)


def gab_group(field, a, b) -> GabGroup:
    """Build and fully verify the maximal subgroup on directions (a, b).

    Restricted to finite fields: the axioms and the isomorphism are checked
    by exhausting all of F*, and over Q that set is infinite.
    """
    if not field.finite:
        raise MatrixError("gab_group enumerates F* and needs a finite field")
    a = vector(field, a)
    b = vector(field, b)
    s = pairing(field, a, b)
    if s == field.zero:
        raise MatrixError("pairing b . a is zero; these directions carry no "
                          "group")
    scalars = tuple(field.nonzero())
    elements = tuple(make_rank1(field, a, scale(field, lam, b))
                     for lam in scalars)
    if len(set(elements)) != len(elements):
        raise MatrixError("group elements are not distinct")
    index = {m: k for k, m in enumerate(elements)}

    # closure plus the full multiplication rule  m_lam m_mu = m_{lam mu s},
    # which is exactly multiplicativity of phi(m_lam) = lam s; it already
    # gives the identity m_{1/s} and the inverse m_{1/(lam s^2)} of m_lam,
    # and lam -> lam s is onto F* for any nonzero s
    for lam, m1 in zip(scalars, elements):
        for mu, m2 in zip(scalars, elements):
            prod = multiply(m1, m2)
            expect = field.mul(field.mul(lam, mu), s)
            if index.get(prod) is None or scalars[index[prod]] != expect:
                raise MatrixError("products left the candidate group")
    return GabGroup(field, len(a), a, b, s, scalars, elements,
                    scalars.index(field.inv(s)))


@dataclass(frozen=True)
class Rank1Universe:
    """Every rank <= 1 matrix over GF(p)^{n x n}, with its full table."""

    field: object
    n: int
    elements: tuple         # zero first, then (direction, row) lex order
    table: CayleyTable
    idempotents: tuple      # indices into elements
    groups: tuple           # (a, b, pairing, order) per direction pair

    def to_json(self) -> dict:
        sj = self.field.scalar_to_json
        return {
            "field": self.field.descriptor(),
            "n": self.n,
            "element_count": len(self.elements),
            "idempotent_count": len(self.idempotents),
            "idempotents": list(self.idempotents),
            "elements": [m.to_json() for m in self.elements],
            "table": self.table.to_json(),
            "groups": [{"a": [sj(c) for c in a], "b": [sj(c) for c in b],
                        "pairing": sj(s), "order": order}
                       for a, b, s, order in self.groups],
        }


def canonical_directions(field, n: int):
    """All vectors with first nonzero entry 1, in lex order."""
    out = []
    for v in iproduct(field.elements(), repeat=n):
        lead = next((c for c in v if c != field.zero), None)
        if lead == field.one:
            out.append(v)
    return out


def rank1_universe(n: int, p: int) -> Rank1Universe:
    """Enumerate the whole rank <= 1 semigroup over GF(p), tabulate it, and
    locate its idempotents and maximal subgroups.

    The table is built from indices, not by ``multiply``.  Element
    1 + i * R + j is (dirs[i], nonzero_rows[j]), with R nonzero rows, and
    the product of (c1, r1) and (c2, r2) is zero or (c1, lam * r2) with
    lam = r1 . c2, so each table row is a concatenation of precomputed
    index runs, one per direction c2.  Each group is checked on that table."""
    if n < 1:
        raise MatrixError("dimension must be at least 1")
    # refused before GF(p)'s trial division; GF itself refuses p < 2.  Any
    # p >= 2 gives at least p - 1 matrices, and (2**5 - 1)**2 = 961 when
    # n >= 5, so those are refused before p ** n, which can have more
    # digits than an int may print; so can p and n, and then they are not
    # named
    if p > MAX_MATRICES + 1 or (n >= 5 and p > 1):
        try:
            where = f" over GF({p})^{{{n}x{n}}}"
        except ValueError:
            where = ""
        raise MatrixError(f"the count of nonzero rank-1 matrices{where} "
                          f"exceeds the cap of {MAX_MATRICES}")
    count = (p ** n - 1) // (p - 1) * (p ** n - 1) if p > 1 else 0
    if count > MAX_MATRICES:
        raise MatrixError(
            f"{count} nonzero rank-1 matrices over GF({p})^{{{n}x{n}}} "
            f"exceeds the cap of {MAX_MATRICES}")
    field = GF(p)
    dirs = canonical_directions(field, n)
    nonzero_rows = [v for v in iproduct(field.elements(), repeat=n)
                    if not is_zero_vector(field, v)]
    elements = [zero_matrix(field, n)]
    for c in dirs:
        for r in nonzero_rows:
            elements.append(Rank1Matrix(field, n, c, r))
    # scaled[lam - 1][j] = index of lam * nonzero_rows[j], and
    # lams[j][k] = nonzero_rows[j] . dirs[k], the scalar of a product's row
    row_index = {r: j for j, r in enumerate(nonzero_rows)}
    scaled = [[row_index[scale(field, lam, r)] for r in nonzero_rows]
              for lam in field.nonzero()]
    lams = [[dot(field, r, c) for c in dirs] for r in nonzero_rows]
    width = len(nonzero_rows)
    rows = [(0,) * len(elements)]
    for i in range(len(dirs)):
        # runs[lam]: the products (dirs[i], r1)(c2, r2) over all r2 when
        # r1 . c2 = lam, the zero run when lam = 0
        base = 1 + i * width
        runs = [(0,) * width] + [tuple(base + j for j in s) for s in scaled]
        rows.extend(tuple(chain((0,), *map(runs.__getitem__, lam_row)))
                    for lam_row in lams)
    table = CayleyTable(tuple(rows))
    idempotents = tuple(k for k in range(len(elements))
                        if table.rows[k][k] == k)
    groups = []
    for i, a in enumerate(dirs):
        for b in dirs:
            s = pairing(field, a, b)
            if s == field.zero:
                continue
            # h[lam - 1] is m_lam = (a, lam b); check m_lam m_mu = m_{lam mu s}
            h = [1 + i * width + run[row_index[b]] for run in scaled]
            if len(set(h)) != len(h):
                raise MatrixError("group elements are not distinct")
            for lam, x in enumerate(h, 1):
                row = rows[x]
                for mu, y in enumerate(h, 1):
                    if row[y] != h[lam * mu * s % p - 1]:
                        raise MatrixError("products left the candidate group")
            groups.append((a, b, s, len(h)))
    return Rank1Universe(field, n, tuple(elements), table, idempotents,
                         tuple(groups))
