"""Exact scalar arithmetic over the rationals and over prime fields.

Every scalar carries its field, and mixing fields raises FieldMismatch
instead of coercing.  Rational values are ints or Fractions (canonical
reduced form, positive denominator): `Field.scalar` builds Fractions,
and arithmetic on integral values may keep them ints.  Prime-field
values are ints in [0, p).  No floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch

#: the scalar strings a document may hold: an integer or a fraction "a/b"
_SCALAR_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

#: The first 13 primes, for trial division and as Miller-Rabin witnesses;
#: as witnesses they decide primality exactly below psi_13 (Sorenson and
#: Webster, Math. Comp. 86, 2017).  The first 12 do not: they pass
#: psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13, itself composite


def is_prime(n: int) -> bool:
    """Exact primality below psi_13; ValueError at or above it."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large: primality is decided only below {_MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Field descriptor: the rationals when p is None, else F_p for prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        # 5.0 would pass is_prime and then hold float constants
        if p is not None and type(p) is not int:
            raise ValueError(f"modulus {p!r} is not an integer")
        if p is not None and not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash((self.p,))

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, 'a/b' string, or same-field Scalar.

        Floats and bools are refused: neither is exact field data."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"scalar over {value.field!r} used in {self!r}")
            return value
        if isinstance(value, (bool, float)):
            raise ValueError(f"{value!r} is not an exact scalar (use an int, a Fraction or 'a/b')")
        if isinstance(value, str):
            # Fraction alone would also take "1e999999999" and build 10**999999999
            if not _SCALAR_TEXT.fullmatch(value):
                raise ValueError(f"{value!r} is not an integer or 'a/b' fraction")
            try:
                value = Fraction(value)
            except ZeroDivisionError as exc:
                raise DivisionByZero(f"zero denominator in {value!r}") from exc
        if self.p is None:
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise DivisionByZero(f"denominator of {value} vanishes mod {self.p}")
            num = value.numerator % self.p
            return Scalar(self, num * pow(value.denominator % self.p, -1, self.p) % self.p)
        return Scalar(self, int(value) % self.p)

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def to_json(self) -> dict:
        if self.p is None:
            return {"kind": "Q"}
        return {"kind": "Fp", "p": self.p}

    @staticmethod
    def from_json(doc: dict) -> "Field":
        if doc["kind"] == "Q":
            return Field()
        if doc["kind"] == "Fp":
            return Field(doc["p"])
        raise ValueError(f"unknown field kind {doc['kind']!r}")


#: The field of rational numbers.
QQ = Field()


class Scalar:
    """An exact field element; arithmetic stays inside one field."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: Fraction | int):
        self.field = field
        self.value = value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # as tuples, the fields are compared by identity first
        return (self.field, self.value) == (other.field, other.value)

    def __hash__(self):
        return hash((self.field, self.value))

    def _check(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            other = self.field.scalar(other)
        if other.field != self.field:
            raise FieldMismatch(f"cannot combine {self.field!r} and {other.field!r} scalars")
        return other

    def __add__(self, other):
        other = self._check(other)
        v = self.value + other.value
        return Scalar(self.field, v if self.field.p is None else v % self.field.p)

    def __sub__(self, other):
        other = self._check(other)
        v = self.value - other.value
        return Scalar(self.field, v if self.field.p is None else v % self.field.p)

    def __mul__(self, other):
        other = self._check(other)
        v = self.value * other.value
        return Scalar(self.field, v if self.field.p is None else v % self.field.p)

    def __neg__(self):
        return Scalar(self.field, -self.value if self.field.p is None else -self.value % self.field.p)

    def inv(self) -> "Scalar":
        if not self:
            raise DivisionByZero("inverse of zero")
        if self.field.p is None:  # 1 / an int would be a float
            return Scalar(self.field, Fraction(1) / self.value)
        return Scalar(self.field, pow(self.value, -1, self.field.p))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        if self.field.p is None:
            return Scalar(self.field, self.value**e)
        return Scalar(self.field, pow(self.value, e, self.field.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)

    def to_json(self):
        """Rationals encode as 'num/den' strings, prime-field elements as ints."""
        if self.field.p is None:
            return f"{self.value.numerator}/{self.value.denominator}"
        return self.value
