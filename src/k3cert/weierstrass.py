"""Elliptic-curve group law and plane translation maps, exactly.

The chord-tangent addition is the independent oracle.  It works on the
integer numerators and denominators of its summands and reduces the slope
and each coordinate of the sum once, by one gcd each.  Each CurvePoint
carries those integers as its key; a SumTable holds the sums of one curve,
each computed once and kept under the keys of its summands, and the sample
multiples, the restriction check and the group-law oracle read it.
The translation-by-(a, b) formulas
    s' = ((t - b)/(s - a))^2 - s - a,
    t' = ((t - b)/(s - a)) (s' - a) + b
are written once, in translate, and evaluated over Fractions at points and,
for identities, over Quotients: unreduced quotients of sympy's sparse
polynomial ring K = Z[s, t, a, b].  Equality of quotients is
cross-multiplication, so it is exact and no polynomial gcd is ever taken;
Fraction translation points coerce into them.  Elimination shows the
inverse is the same formula; the involution identity is proved on
quotients, generically in (a, b) and for each concrete translation point.
Finite automorphisms are checked on their exponents in mu_12, so sympy
serves only K.

Note the second displayed formula has no final negation, so on the curve
the map may realize P + (a, b) or -(P + (a, b)); restriction_agreement
measures which convention holds and reports it rather than assuming one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm

from sympy import ZZ
from sympy.polys.rings import ring

from .report import run_suite, verdict

# the polynomial ring Z[s, t, a, b] of the identity checks; its quotients
# stay unreduced, so no polynomial gcd is ever taken
K, *_GENS = ring("s,t,a,b", ZZ)


class Quotient:
    """num/den with num and den ints or elements of K and den nonzero, never
    reduced.  Two quotients are equal exactly when their cross-products are,
    and an unreduced degree bounds the degree of the reduced quotient, so
    the identity and degree checks need no gcd.  Ints and Fractions coerce;
    a zero divisor raises ZeroDivisionError."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if not den:
            raise ZeroDivisionError("quotient with a zero denominator")
        self.num, self.den = num, den

    def __add__(self, other):
        o = _quotient(other)
        # a shared or unit denominator spares the cross-products
        if self.den == o.den:
            return Quotient(self.num + o.num, self.den)
        if o.den == 1:
            return Quotient(self.num + o.num * self.den, self.den)
        if self.den == 1:
            return Quotient(self.num * o.den + o.num, o.den)
        return Quotient(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return Quotient(-self.num, self.den)

    def __sub__(self, other):
        return self + -_quotient(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = _quotient(other)
        return Quotient(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _quotient(other)
        return Quotient(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return _quotient(other) / self

    def __pow__(self, n):
        if n < 0:
            return (1 / self) ** -n
        return Quotient(self.num ** n, self.den ** n) if n else Quotient(1)

    def __eq__(self, other):
        o = _quotient(other)
        return self.num * o.den == o.num * self.den

    def __repr__(self):
        return "(%s)/(%s)" % (self.num, self.den)


def _quotient(x):
    """x as a Quotient: x is one, a Fraction, an int or an element of K."""
    if isinstance(x, Quotient):
        return x
    if isinstance(x, Fraction):
        return Quotient(x.numerator, x.denominator)
    return Quotient(x)


S, T, A, B = map(Quotient, _GENS)


class CurveError(ValueError):
    pass


@dataclass(frozen=True)
class CurvePoint:
    x: Fraction = None
    y: Fraction = None
    at_infinity: bool = False

    @staticmethod
    def infinity():
        return CurvePoint(at_infinity=True)

    @staticmethod
    def affine(x, y):
        return CurvePoint(x=Fraction(x), y=Fraction(y))

    @cached_property
    def key(self):
        """The integers (a, b, c, e) of an affine point (a/b, c/e), None at
        O: comparing or hashing these skips the Fraction machinery (hashing
        a Fraction takes a modular inverse)."""
        if self.at_infinity:
            return None
        return (self.x.numerator, self.x.denominator,
                self.y.numerator, self.y.denominator)

    def __repr__(self):
        if self.at_infinity:
            return "O"
        return "(%s, %s)" % (self.x, self.y)


O = CurvePoint.infinity()


@dataclass(frozen=True)
class WeierstrassCurve:
    p: Fraction
    q: Fraction
    # the keys of the affine points contains has found on the curve, so
    # each (curve, point) equation is evaluated once
    _on_curve: set = field(default_factory=set, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if 4 * self.p ** 3 + 27 * self.q ** 2 == 0:
            raise CurveError("curve y^2 = x^3 + px + q is singular")

    def contains(self, pt):
        """y^2 = x^3 + p x + q with no gcd taken, for x = a/b, y = c/e,
        p = P/Q and q = R/S in lowest terms.  With p and q integers both
        sides are in lowest terms, as gcd(a^3 + P a b^2 + R b^3, b) =
        gcd(a^3, b) = 1, so it reads c^2 = a^3 + P a b^2 + R b^3 and
        e^2 = b^3; otherwise, with every denominator cleared, it reads
        c^2 b^3 Q S = e^2 (a^3 Q S + P a b^2 S + R b^3 Q).  A point found
        on the curve is recorded under its key and not checked again; a
        point off it is checked at every call."""
        if pt.at_infinity:
            return True
        key = pt.key
        if key in self._on_curve:
            return True
        a, b, c, e = key
        P, Q = self.p.numerator, self.p.denominator
        R, S = self.q.numerator, self.q.denominator
        b2 = b * b
        b3 = b2 * b
        if Q == S == 1:
            on = e * e == b3 and c * c == a * a * a + P * a * b2 + R * b3
        else:
            on = c * c * b3 * Q * S == e * e * (a * a * a * Q * S
                                                + P * a * b2 * S + R * b3 * Q)
        if on:
            self._on_curve.add(key)
        return on

    def neg(self, pt):
        if pt.at_infinity:
            return pt
        return CurvePoint.affine(pt.x, -pt.y)


@cache
def _curve(p, q):
    """The one WeierstrassCurve y^2 = x^3 + p x + q of the certificate's
    checks, so they share its record of the points found on it."""
    return WeierstrassCurve(p, q)


def chord_tangent_add(curve, p1, p2):
    """Standard group law with O at infinity, exactly.

    With x_i = a_i/b_i and y_i = c_i/e_i in lowest terms, the slope is
    reduced once, then x3 = lam^2 - x1 - x2 and y3 = lam (x2 - x3) - y2 are
    each one integer fraction reduced once; the line through both summands
    gives y3 from either, and p2, the fixed summand of a chain of
    multiples, keeps its numbers small."""
    for pt in (p1, p2):
        if not curve.contains(pt):
            raise CurveError("point %s is not on the curve" % (pt,))
    if p1.at_infinity:
        return p2
    if p2.at_infinity:
        return p1
    a1, b1, c1, e1 = p1.key
    a2, b2, c2, e2 = p2.key
    if a1 == a2 and b1 == b2:
        if c1 == -c2:  # on the curve y2 = +-y1, so e1 = e2
            return O
        # doubling: lam = (3 x1^2 + p) / (2 y1), p = P/Q
        P, Q = curve.p.numerator, curve.p.denominator
        num = (3 * a1 * a1 * Q + P * b1 * b1) * e1
        den = 2 * c1 * b1 * b1 * Q
    else:
        num = (c2 * e1 - c1 * e2) * b1 * b2
        den = (a2 * b1 - a1 * b2) * e1 * e2
    # a negative den is fine: x3 reads den^2, and y3's Fraction fixes signs
    g = gcd(num, den)
    num //= g
    den //= g
    den2 = den * den
    x3 = Fraction(num * num * b1 * b2 - den2 * (a1 * b2 + a2 * b1),
                  den2 * b1 * b2)
    a3, b3 = x3.numerator, x3.denominator
    y3 = Fraction(num * (a2 * b3 - a3 * b2) * e2 - c2 * den * b2 * b3,
                  den * b2 * b3 * e2)
    return CurvePoint(x3, y3)


class SumTable:
    """The sums p + q on one curve, each computed once by chord_tangent_add
    and kept under the pair of keys (p.key, q.key).  The pair is ordered,
    so p + q and q + p are computed separately."""

    def __init__(self, curve):
        self.curve = curve
        self._sums = {}

    def add(self, p, q):
        k = p.key, q.key
        total = self._sums.get(k)
        if total is None:
            total = self._sums[k] = chord_tangent_add(self.curve, p, q)
        return total


def multiples(sums, base, count):
    """base, 2*base, ..., count*base (entries may include O), each step a sum
    read from the table."""
    out = []
    acc = base
    for _ in range(count):
        out.append(acc)
        acc = sums.add(acc, base)
    return out


# ---------------------------------------------------------------------------

def translate(a, b, s, t):
    """The displayed translation-by-(a, b) formulas, evaluated in whatever
    field holds a, b, s and t; ZeroDivisionError on the line s = a."""
    lam = (t - b) / (s - a)
    s2 = lam ** 2 - s - a
    return s2, lam * (s2 - a) + b


@dataclass(frozen=True)
class RationalMap:
    """A plane rational map given by one formula (s, t) -> (s', t'),
    evaluated over Fractions at points and over K for identities."""
    formula: object

    def apply(self, pt):
        """Evaluate at an affine point with Fraction coordinates, exactly."""
        try:
            return CurvePoint.affine(*self.formula(pt.x, pt.y))
        except ZeroDivisionError:
            raise CurveError("map undefined at %s" % (pt,)) from None

    def compose(self, other):
        """self after other."""
        return RationalMap(lambda s, t: self.formula(*other.formula(s, t)))

    def components(self):
        """The two components as unreduced quotients over K."""
        return self.formula(S, T)


def translation_map(a, b):
    """The displayed translation formulas as a plane rational map; (a, b)
    is a rational point, or (A, B) for the generic map."""
    return RationalMap(lambda s, t: translate(a, b, s, t))


def invert_translation_map(a, b):
    """Inverse by the elimination that proves birationality.

    (a, b), (s, t) and their image (s', t') lie on one line of slope
    lam = (t - b)/(s - a) = (t' - b)/(s' - a).  The first formula then gives
    s = lam^2 - s' - a, and t = lam (s - a) + b: the forward formulas with
    (s', t') in place of (s, t), so the plane map is its own inverse.  That
    identity is proved here once, in K (generically for (a, b) = (A, B)).
    """
    phi = translation_map(a, b)
    s1, t1 = phi.compose(phi).components()
    if (s1, t1) != (S, T):
        raise CurveError("inverse composition residual: %s"
                         % ((s1 - S, t1 - T),))
    return phi


# ---------------------------------------------------------------------------
# finite automorphisms fixing the origin

# d -> (i, j) with (cx, cy) = (zeta^i, zeta^j) = (1, -1), (-1, i), (zeta_3, -1)
_AUT_EXPONENTS = {2: (0, 6), 4: (6, 3), 6: (4, 6)}


def preserves_curve(i, j, p, q):
    """Whether (x, y) -> (zeta^i x, zeta^j y), zeta = e^(2 pi i/12), maps
    f = y^2 - x^3 - px - q to cy^2 f.  The image minus cy^2 f is
        (cy^2 - cx^3) x^3 + p (cy^2 - cx) x + q (cy^2 - 1),
    so each coefficient vanishes by an identity of exponents mod 12."""
    return ((3 * i - 2 * j) % 12 == 0
            and (p == 0 or (i - 2 * j) % 12 == 0)
            and (q == 0 or 2 * j % 12 == 0))


def mu12_order(i, j):
    """The least k with cx^k = cy^k = 1: zeta^i has order 12 / gcd(i, 12)."""
    return lcm(12 // gcd(i, 12), 12 // gcd(j, 12))


def finite_automorphism(d, p, q):
    """Substitution (x, y) -> (cx*x, cy*y) of exact order d preserving the
    curve shape, with (cx, cy) = (zeta^i, zeta^j); returns ((i, j), order)."""
    if d not in _AUT_EXPONENTS:
        raise CurveError("finite order must be 2, 4 or 6")
    i, j = _AUT_EXPONENTS[d]
    if not preserves_curve(i, j, p, q):
        raise CurveError("(x, y) -> (zeta^%d x, zeta^%d y) does not preserve "
                         "y^2 = x^3 + %s x + %s" % (i, j, p, q))
    order = mu12_order(i, j)
    if order != d:
        raise CurveError("substitution has order %s, expected %d" % (order, d))
    return (i, j), order


# ---------------------------------------------------------------------------

def restriction_agreement(sums, ab, samples):
    """Measure whether the plane map restricted to the curve of the sums
    table is P + (a, b) or -(P + (a, b)), uniformly over the samples; each
    P + (a, b) is read from the table.  The image and fits of each distinct
    sample are computed once; a repeated sample (the multiples on a torsion
    curve) reads them back and still counts as checked.

    Returns (convention, checked) where convention is "plain-addition" or
    "addition-then-negation".  Raises on a mixed or unexplained verdict.
    """
    curve = sums.curve
    if not curve.contains(ab):
        raise CurveError("translation point %s is not on the curve" % (ab,))
    phi = translation_map(ab.x, ab.y)
    possible = {"plain-addition", "addition-then-negation"}
    seen = {}  # sample key -> its fits
    checked = 0
    for pt in samples:
        if pt.at_infinity or pt.x == ab.x:
            continue  # map undefined along s = a
        fits = seen.get(pt.key)
        if fits is None:
            expected = sums.add(pt, ab)
            if expected.at_infinity:
                continue
            img = phi.apply(pt)
            if not curve.contains(img):
                raise CurveError("image %s of %s left the curve" % (img, pt))
            fits = seen[pt.key] = set()
            if img.key == expected.key:
                fits.add("plain-addition")
            if img.key == curve.neg(expected).key:  # 2-torsion fits both
                fits.add("addition-then-negation")
            if not fits:
                raise CurveError("image %s of %s matches neither P+(a,b) "
                                 "nor its negative" % (img, pt))
        possible &= fits
        if not possible:
            raise CurveError("convention flipped at %s" % (pt,))
        checked += 1
    if checked == 0:
        raise CurveError("no usable sample points")
    if len(possible) != 1:
        raise CurveError("convention undetermined: every sample was "
                         "2-torsion ambiguous")
    return possible.pop(), checked


# ---------------------------------------------------------------------------
# certificate

# (p, q, base point, translation point): base generates the samples
_TEST_CURVES = (
    (0, 1, (2, 3), (0, 1)),
    (0, 17, (2, 5), (2, 5)),
    (-2, 1, (0, 1), (1, 0)),
)


def _sample_points(sums, base, count=42):
    """Multiples of the base point; on torsion curves the list repeats, which
    is fine for agreement sampling."""
    return [pt for pt in multiples(sums, base, count) if not pt.at_infinity]


def check_group_law_oracle():
    problems = []
    e = _curve(0, 1)
    got = chord_tangent_add(e, CurvePoint.affine(2, 3), CurvePoint.affine(0, 1))
    if got != CurvePoint.affine(-1, 0):
        problems.append("(2,3) + (0,1) = %s, expected (-1, 0)" % (got,))
    p = CurvePoint.affine(2, 3)
    if chord_tangent_add(e, p, O) != p:
        problems.append("P + O != P")
    if chord_tangent_add(e, p, e.neg(p)) != O:
        problems.append("P + (-P) != O")
    # associativity and commutativity on triples from a cyclic subgroup;
    # each sum is computed once, in the table
    sums = SumTable(_curve(0, 17))
    add = sums.add
    pts = [O] + multiples(sums, CurvePoint.affine(2, 5), 6)
    triples = 0
    for a in pts:
        for b in pts:
            ab = add(a, b)
            if ab.key != add(b, a).key:
                problems.append("commutativity failed at (%s, %s)" % (a, b))
            for c in pts:
                if add(ab, c).key != add(a, add(b, c)).key:
                    problems.append("associativity failed at (%s, %s, %s)"
                                    % (a, b, c))
                triples += 1
    if triples < 50:
        problems.append("only %d associativity triples checked" % triples)
    return verdict(problems[:3], "group-law oracle: worked example, identity "
                   "and inverse laws, commutativity and associativity on %d "
                   "triples" % triples)


def check_forward_map():
    problems = []
    phi = translation_map(0, 1)
    img = phi.apply(CurvePoint.affine(2, 3))
    if img != CurvePoint.affine(-1, 0):
        problems.append("map(2,3) = %s, expected (-1, 0)" % (img,))
    e = _curve(0, 1)
    phi2 = translation_map(2, 3)
    img2 = phi2.apply(CurvePoint.affine(0, -1))
    if not e.contains(img2):
        problems.append("image of (0,-1) under the (2,3)-map left the curve")
    # the unreduced degrees bound those of the reduced components
    for c in phi.components():
        for poly in (K(c.num), K(c.den)):
            for i, var in enumerate("st"):
                if poly.degree(i) > 3:
                    problems.append("component degree in %s exceeds 3" % var)
    return verdict(problems, "displayed formulas reproduce the worked example "
                   "and keep degree <= 3 in each variable after normalization")


def check_inverse_composition():
    problems = []
    invert_translation_map(A, B)  # generic (a, b); raises on a residual
    for p, q, base, ab in _TEST_CURVES:
        try:
            inv = invert_translation_map(*ab)
        except CurveError as exc:
            problems.append("curve (p=%s, q=%s): %s" % (p, q, exc))
            continue
        rt = inv.apply(CurvePoint.affine(-1, 0)) if (p, q) == (0, 1) else None
        if (p, q) == (0, 1) and rt != CurvePoint.affine(2, 3):
            problems.append("round-trip of the worked example gave %s" % (rt,))
    return verdict(problems, "composition with the recovered inverse "
                   "simplifies to the identity map, generically in (a, b) and "
                   "on all three test curves")


def check_finite_automorphisms():
    problems = []
    for d, p, q in ((2, -2, 1), (4, 5, 0), (6, 0, 7)):
        try:
            finite_automorphism(d, p, q)  # raises unless the order is d
        except CurveError as exc:
            problems.append("d=%d: %s" % (d, exc))
    # shape mismatches must be rejected
    for d, p, q in ((4, 1, 1), (6, 1, 1)):
        try:
            finite_automorphism(d, p, q)
            problems.append("d=%d accepted a wrong curve shape" % d)
        except CurveError:
            pass
    return verdict(problems, "order certificates pass for d = 2, 4, 6 with "
                   "exact cyclotomic coefficients; wrong shapes are rejected")


def check_restriction():
    problems = []
    verdicts = []
    tables = {}  # one sums table per curve
    for p, q, base, ab in _TEST_CURVES:
        sums = tables[p, q] = SumTable(_curve(p, q))
        samples = _sample_points(sums, CurvePoint.affine(*base))
        try:
            convention, n = restriction_agreement(
                sums, CurvePoint.affine(*ab), samples)
        except CurveError as exc:
            problems.append("curve (p=%s, q=%s): %s" % (p, q, exc))
            continue
        verdicts.append(convention)
        if n < 20:
            problems.append("curve (p=%s, q=%s): only %d samples" % (p, q, n))
    if len(set(verdicts)) > 1:
        problems.append("convention differs across curves: %s" % verdicts)
    # 2-torsion translation: the restricted map squares to the identity,
    # checked once per distinct sample (the multiples of (0, 1) repeat)
    phi = translation_map(1, 0)
    seen = set()
    for pt in _sample_points(tables[-2, 1], CurvePoint.affine(0, 1), 8):
        if pt.x == 1 or pt.key in seen:
            continue
        seen.add(pt.key)
        try:
            rt = phi.apply(phi.apply(pt))
        except CurveError:
            continue  # intermediate point hit s = a
        if rt != pt:
            problems.append("2-torsion translation did not square to the "
                            "identity at %s" % (pt,))
            break
    return verdict(problems, "uniform convention %r across all curves against "
                   "the chord-tangent oracle"
                   % (verdicts[0] if verdicts else None))


SUITE = (
    ("thm-2.2-grouplaw", "Theorem 2.2 proof (oracle)", check_group_law_oracle),
    ("thm-2.2-map", "Theorem 2.2 proof (translation map)", check_forward_map),
    ("thm-2.2-inverse", "Theorem 2.2 proof (birationality)",
     check_inverse_composition),
    ("thm-2.2-finite", "Theorem 2.2 proof (Aut(E, O))",
     check_finite_automorphisms),
    ("thm-2.2-restriction", "Theorem 2.2 proof (restriction to E)",
     check_restriction),
)


def full_weierstrass_certificate():
    return run_suite(SUITE)
