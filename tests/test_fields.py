"""Scalar arithmetic over Q and F_p."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graded_leibniz import DivisionByZero, Field, FieldMismatch, QQ, is_prime
from graded_leibniz.fields import Scalar


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_large_witness_cases():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    # Carmichael numbers must not fool the witness set
    for n in (561, 1105, 1729, 2465, 41041, 825265):
        assert not is_prime(n)


#: psi_12 and psi_13: the least strong pseudoprimes to the first 12 and 13
#: prime bases (Sorenson and Webster, Math. Comp. 86, 2017)
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


def strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**k, n) == n - 1 for k in range(1, r))


def test_is_prime_refuses_the_pseudoprimes_to_its_first_twelve_witnesses():
    assert PSI12 == 399165290221 * 798330580441
    assert all(strong_probable_prime(PSI12, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert not is_prime(PSI12)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    with pytest.raises(ValueError):
        Field(PSI12)


def test_is_prime_refuses_to_decide_from_psi13_on():
    # psi_13 is composite yet passes all 13 witnesses, so it and every
    # larger modulus are refused rather than guessed
    assert PSI13 == 1287836182261 * 2575672364521
    assert all(strong_probable_prime(PSI13, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
    for n in (PSI13, PSI13 + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            is_prime(n)
        with pytest.raises(ValueError):
            Field(n)
    assert not is_prime(PSI13 - 2)


def test_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)


def test_field_repr_and_kind():
    assert repr(QQ) == "Q" and QQ.to_json() == {"kind": "Q"}
    assert repr(Field(5)) == "F5" and Field(5).to_json() == {"kind": "Fp", "p": 5}


def test_scalar_coercion():
    f5 = Field(5)
    assert f5.scalar(7).value == 2
    assert f5.scalar(-1).value == 4
    assert f5.scalar(Fraction(1, 2)).value == 3  # 2^-1 = 3 mod 5
    assert f5.scalar("1/2").value == 3
    assert QQ.scalar("3/4").value == Fraction(3, 4)
    assert QQ.scalar(2).value == Fraction(2)


def test_scalar_coercion_rejects_bad_denominator():
    with pytest.raises(DivisionByZero):
        Field(5).scalar(Fraction(1, 5))


def test_scalar_coercion_refuses_inexact_values():
    # a float or a bool is not field data: 1.5 must not truncate to 1 mod p
    for field in (QQ, Field(5)):
        for bad in (1.5, 2.0, float("inf"), True, False):
            with pytest.raises(ValueError):
                field.scalar(bad)


def test_scalar_coercion_zero_denominator():
    for field in (QQ, Field(5)):
        with pytest.raises(DivisionByZero):
            field.scalar("1/0")


def test_scalar_strings_are_integers_or_fractions():
    for field in (QQ, Field(5)):
        assert field.scalar("+3") == field.scalar(3)
        assert field.scalar("-6/4") == field.scalar(Fraction(-3, 2))
        assert field.scalar("007/1") == field.scalar(7)
        # exponents, decimals, underscores, whitespace and non-ASCII digits
        # are not in the documented "a/b" form; "1e999999999" would build 10**999999999
        for bad in ("1e400", "1E2", "1.5", ".5", "1_000", " 1/2", "1/2\n", "1 / 2", "",
                    "/2", "1/", "1/-2", "+-1", "0x10", "inf", "nan", "\u0661"):
            with pytest.raises(ValueError):
                field.scalar(bad)
        with pytest.raises(DivisionByZero):
            field.scalar("-1/0")


def test_cross_field_mixing_raises():
    with pytest.raises(FieldMismatch):
        QQ.one() + Field(3).one()
    with pytest.raises(FieldMismatch):
        Field(3).scalar(Field(5).one())


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.one() / QQ.zero()
    with pytest.raises(DivisionByZero):
        Field(7).zero().inv()


def test_json_round_trip():
    for field in (QQ, Field(2), Field(97)):
        assert Field.from_json(field.to_json()) == field
    s = QQ.scalar("-7/3")
    assert QQ.scalar(s.to_json()) == s
    t = Field(5).scalar(3)
    assert t.to_json() == 3


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
f7 = Field(7)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    x, y, z = QQ.scalar(a), QQ.scalar(b), QQ.scalar(c)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == QQ.zero()
    if x:
        assert x * x.inv() == QQ.one()


@given(st.integers(), st.integers(), st.integers())
def test_prime_field_axioms(a, b, c):
    x, y, z = f7.scalar(a), f7.scalar(b), f7.scalar(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x
    if x:
        assert x / x == f7.one()


@given(st.integers(min_value=1, max_value=10**9))
def test_fermat_little_theorem(a):
    for p in (2, 3, 5, 13):
        field = Field(p)
        x = field.scalar(a)
        if x:
            assert x ** (p - 1) == field.one()


@given(st.fractions(min_value=-(10**3), max_value=10**3, max_denominator=10**3), st.integers(min_value=-6, max_value=6))
def test_power_consistency(a, e):
    x = QQ.scalar(a)
    if not x and e <= 0:
        return
    acc = QQ.one()
    for _ in range(abs(e)):
        acc = acc * x
    if e < 0:
        acc = acc.inv()
    assert x**e == acc
