"""Exact scalar arithmetic over the rationals and over prime fields.

Every scalar carries its field, and mixing fields raises FieldMismatch
instead of coercing.  Rational values are stored as Fraction (canonical
reduced form, positive denominator); prime-field values as ints in
[0, p).  No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch

# Witness set making Miller-Rabin deterministic for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


@dataclass(frozen=True)
class Field:
    """Field descriptor: the rationals when p is None, else F_p for prime p."""

    p: int | None = None

    def __post_init__(self):
        # 5.0 would pass is_prime and then hold float constants
        if self.p is not None and type(self.p) is not int:
            raise ValueError(f"modulus {self.p!r} is not an integer")
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def kind(self) -> str:
        return "Q" if self.p is None else "Fp"

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

    def units(self):
        """All nonzero elements; only available for prime fields."""
        if self.p is None:
            raise ValueError("the rationals have infinitely many units")
        return [self.scalar(v) for v in range(1, self.p)]

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


@dataclass(frozen=True)
class Scalar:
    """An exact field element; arithmetic stays inside one field."""

    field: Field
    value: Fraction | int

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
        if self.field.p is None:
            return Scalar(self.field, 1 / self.value)
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

    @staticmethod
    def from_json(field: Field, doc) -> "Scalar":
        return field.scalar(doc)
