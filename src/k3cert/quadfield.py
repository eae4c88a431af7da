"""Exact arithmetic in real quadratic extensions Q(sqrt(d)).

The chamber and the Pell layer compute on integer pairs p + q*sqrt(d):
pair_value evaluates an integer linear form at a ray of such pairs, and
one exact integer rule, zsign, decides every sign, never floating point.
serialize prints a + b*sqrt(d).  A QuadExt value is a + b*sqrt(d) with
rational a, b and a fixed positive non-square integer d; nothing in k3cert
builds one, and the tests keep it as the oracle of the integer routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def is_square(n):
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class QuadExt:
    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.d <= 0 or is_square(self.d):
            raise ValueError("d must be a positive non-square integer")

    # -- coercion ----------------------------------------------------------
    def _lift(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError("mixed discriminants %d and %d" % (self.d, other.d))
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    # -- ring/field operations --------------------------------------------
    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a * o.a + self.b * o.b * self.d,
                       self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.d)
        return self * QuadExt(o.a / n, -o.b / n, self.d)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, k):
        if k < 0:
            return (QuadExt(1, 0, self.d) / self) ** (-k)
        out = QuadExt(1, 0, self.d)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    # -- structure ---------------------------------------------------------
    def conjugate(self):
        return QuadExt(self.a, -self.b, self.d)

    def norm(self):
        """Field norm a^2 - b^2 d (a rational)."""
        return self.a * self.a - self.b * self.b * self.d

    def sign(self):
        """Exact sign of a + b*sqrt(d): the denominators are cleared by a
        positive factor, then zsign decides."""
        a, b = self.a, self.b
        return zsign(a.numerator * b.denominator, b.numerator * a.denominator,
                     self.d)

    def __gt__(self, other):
        o = self._lift(other)
        return (self - o).sign() > 0

    def __lt__(self, other):
        o = self._lift(other)
        return (self - o).sign() < 0

    def __ge__(self, other):
        return not self < other

    def __le__(self, other):
        return not self > other

    def __repr__(self):
        return "QuadExt(%s, %s, %d)" % (self.a, self.b, self.d)

    def __str__(self):
        return serialize(self.a, self.b, self.d)


def zsign(p, q, d):
    """Exact sign of p + q*sqrt(d) for integers p, q and d > 0, square d
    included.

    When p and q have opposite signs, the one with the larger square
    (p^2 against d q^2) decides; equal squares mean zero.
    """
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sp == sq or sq == 0:
        return sp
    if sp == 0:
        return sq
    diff = p * p - d * q * q
    return sp if diff > 0 else (sq if diff < 0 else 0)


def pair_value(row, ray):
    """The integer linear form row at a ray whose coordinates are integer
    pairs (p, q) meaning p + q*sqrt(d): the pair (row.p, row.q), meaning
    row.p + (row.q)*sqrt(d), from two integer dot products."""
    return (sum(r * p for r, (p, _) in zip(row, ray)),
            sum(r * q for r, (_, q) in zip(row, ray)))


def pair_sign(row, ray, d):
    """Exact sign of the integer linear form row at a ray of integer
    pairs: one zsign of pair_value."""
    return zsign(*pair_value(row, ray), d)


def serialize(a, b, d):
    """Render a + b*sqrt(d) as "a+b√d", with a and b exact rationals
    (int or Fraction)."""
    def fr(f):
        return "%d/%d" % (f.numerator, f.denominator) if f.denominator != 1 else str(f.numerator)
    if b == 0:
        return fr(a)
    sign = "+" if b >= 0 else "-"
    return "%s%s%s√%d" % (fr(a), sign, fr(abs(b)), d)
