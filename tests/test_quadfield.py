from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import given, strategies as st

from k3cert.quadfield import (
    QuadExt, is_square, serialize, zsign)


def test_is_square():
    assert is_square(0) and is_square(49)
    assert not is_square(-4) and not is_square(35)


def test_construction_rejects_square_d():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 9)
    with pytest.raises(ValueError):
        QuadExt(1, 1, -5)


def test_field_operations():
    x = QuadExt(Fraction(1, 2), Fraction(3), 5)
    y = QuadExt(2, -1, 5)
    assert x + y == QuadExt(Fraction(5, 2), 2, 5)
    assert x - y == QuadExt(Fraction(-3, 2), 4, 5)
    assert (x * y).a == Fraction(1) - 15 and (x * y).b == Fraction(11, 2)
    assert x * (1 / x) == 1
    assert (x / y) * y == x
    assert 2 + x == x + 2
    assert x ** 3 == x * x * x
    assert x ** -2 == 1 / (x * x)


def test_mixed_discriminants_rejected():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 5) + QuadExt(1, 1, 7)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 1, 5) / QuadExt(0, 0, 5)


def test_norm_and_conjugate():
    x = QuadExt(3, 2, 5)
    assert x.norm() == 9 - 20
    assert x * x.conjugate() == x.norm()
    assert x.conjugate().conjugate() == x


def test_sign_exact_near_cancellation():
    # 2889/1292 is a convergent-level approximation of sqrt(5)
    close = QuadExt(Fraction(2889, 1292), -1, 5)
    assert close.sign() == (1 if 2889 * 2889 > 5 * 1292 * 1292 else -1)
    assert QuadExt(0, 0, 5).sign() == 0
    assert QuadExt(0, -1, 5).sign() == -1
    assert QuadExt(-3, 1, 5).sign() == -1   # sqrt(5) < 3
    assert QuadExt(-2, 1, 5).sign() == 1    # sqrt(5) > 2
    # exact boundary: a^2 == b^2 d
    assert QuadExt(5, -1, 25 * 5).sign() != 0  # 25 != 125
    assert QuadExt(Fraction(5), Fraction(-1), 5).sign() == 1


non_squares = st.integers(2, 10 ** 6).filter(lambda d: not is_square(d))


@st.composite
def near_zero(draw):
    """a + b sqrt(d) within a few units of zero after clearing denominators."""
    d = draw(non_squares)
    big_b = draw(st.integers(-10 ** 6, 10 ** 6).filter(bool))
    den = draw(st.integers(1, 1000))
    s = isqrt(big_b * big_b * d) * (1 if big_b > 0 else -1)
    big_a = -s + draw(st.integers(-2, 2))
    return Fraction(big_a, den), Fraction(big_b, den), d


@given(st.one_of(st.tuples(st.fractions(max_denominator=10 ** 4),
                           st.fractions(max_denominator=10 ** 4), non_squares),
                 near_zero()))
def test_sign_against_isqrt_bracket(abd):
    a, b, d = abd
    # same sign as A + B sqrt(d) with integers A, B; d is no square, so for
    # B != 0, s = isqrt(B^2 d) brackets s < |B| sqrt(d) < s + 1
    den = lcm(a.denominator, b.denominator)
    big_a, big_b = int(a * den), int(b * den)
    s = isqrt(big_b * big_b * d)
    if big_b == 0:
        want = (big_a > 0) - (big_a < 0)
    elif big_b > 0:
        want = 1 if big_a + s >= 0 else -1
    else:
        want = 1 if big_a - s >= 1 else -1
    assert QuadExt(a, b, d).sign() == want


@st.composite
def near_zero_pairs(draw):
    """Integers p, q of opposite signs with p + q sqrt(d) within a few units
    of zero, and p^2 = d q^2 exactly when d is drawn a square."""
    q = draw(st.integers(-10 ** 9, 10 ** 9).filter(bool))
    if draw(st.booleans()):
        r = draw(st.integers(1, 1000))
        return -q * r, q, r * r
    d = draw(non_squares)
    s = isqrt(q * q * d) * (1 if q > 0 else -1)
    return -s + draw(st.integers(-2, 2)), q, d


@given(st.one_of(st.tuples(st.integers(-10 ** 12, 10 ** 12),
                           st.integers(-10 ** 12, 10 ** 12), non_squares),
                 near_zero_pairs()),
       st.integers(1, 10 ** 6))
def test_zsign_against_quadext_sign(pqd, den):
    p, q, d = pqd
    if is_square(d):
        # the oracle needs a field; a square d is an exact integer sum
        r = isqrt(d)
        assert zsign(p, q, d) == (p + q * r > 0) - (p + q * r < 0)
        return
    # QuadExt clears the denominator den before it calls zsign
    assert zsign(p, q, d) == QuadExt(Fraction(p, den), Fraction(q, den), d).sign()
    # and the isqrt bracket of test_sign_against_isqrt_bracket decides alone
    s = isqrt(q * q * d)
    if q == 0:
        want = (p > 0) - (p < 0)
    else:
        want = 1 if (p + s >= 0 if q > 0 else p - s >= 1) else -1
    assert zsign(p, q, d) == want


def test_comparisons():
    r = QuadExt(0, 1, 2)
    assert 1 < r < 2
    assert r <= r
    assert not (r > r)
    assert (r - 1).sign() == 1
    assert (r - 2).sign() == -1


def test_serialize():
    assert serialize(Fraction(1, 2), Fraction(-3, 4), 5) == "1/2-3/4√5"
    assert serialize(2, 0, 5) == "2"
    assert serialize(0, 8, 35) == "0+8√35"
    assert str(QuadExt(Fraction(1, 2), Fraction(-3, 4), 5)) == "1/2-3/4√5"
    assert str(QuadExt(2, 0, 5)) == "2"
    assert str(QuadExt(0, 1, 35)) == "0+1√35"
