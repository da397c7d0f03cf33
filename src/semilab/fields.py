"""Exact scalar arithmetic for the matrix semigroups: prime fields GF(p)
with plain int representatives, and the rationals via fractions.Fraction.
No floats anywhere."""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """GF(p); elements are ints in [0, p)."""

    __slots__ = ("p",)
    finite = True

    def __init__(self, p: int):
        if not _is_prime(p):
            # a p with more digits than an int may print is not named
            try:
                message = f"{p} is not prime"
            except ValueError:
                message = "the field size is not prime"
            raise FieldError(message)
        self.p = p

    def coerce(self, x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise FieldError(f"not a GF({self.p}) scalar: {x!r}")
        return x % self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        return range(self.p)

    def nonzero(self):
        return range(1, self.p)

    @property
    def order(self) -> int:
        return self.p

    def scalar_to_json(self, a):
        return a

    def descriptor(self) -> dict:
        return {"p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The rationals; elements are Fraction instances."""

    __slots__ = ()
    finite = False

    def coerce(self, x) -> Fraction:
        if isinstance(x, bool) or isinstance(x, float):
            raise FieldError(f"not an exact rational: {x!r}")
        return Fraction(x)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in Q")
        return 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def scalar_to_json(self, a):
        return str(a)

    def descriptor(self) -> dict:
        return {"p": "Q"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


_gf_cache: dict = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


QQ = RationalField()


def vector(field, xs) -> tuple:
    return tuple(field.coerce(x) for x in xs)


def dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def scale(field, c, u) -> tuple:
    return tuple(field.mul(c, x) for x in u)


def is_zero_vector(field, u) -> bool:
    return all(x == field.zero for x in u)
