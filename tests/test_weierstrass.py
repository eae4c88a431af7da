import itertools
import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.fields import field
from sympy.polys.rings import PolyElement, ring

from k3cert import weierstrass as w
from k3cert.report import FAIL, PASS


def curve(p, q):
    return w.WeierstrassCurve(p, q)


def test_singular_curve_rejected():
    with pytest.raises(w.CurveError):
        curve(-3, 2)  # 4*(-27) + 27*4 = 0
    with pytest.raises(w.CurveError):
        curve(0, 0)


def test_contains():
    e = curve(0, 1)
    assert e.contains(w.CurvePoint.affine(2, 3))
    assert e.contains(w.O)
    assert not e.contains(w.CurvePoint.affine(1, 1))


def test_addition_worked_example():
    e = curve(0, 1)
    p, q = w.CurvePoint.affine(2, 3), w.CurvePoint.affine(0, 1)
    assert w.chord_tangent_add(e, p, q) == w.CurvePoint.affine(-1, 0)


def test_identity_and_inverse_laws():
    e = curve(0, 1)
    p = w.CurvePoint.affine(2, 3)
    assert w.chord_tangent_add(e, p, w.O) == p
    assert w.chord_tangent_add(e, w.O, p) == p
    assert w.chord_tangent_add(e, p, e.neg(p)) == w.O


def test_doubling():
    e = curve(0, 17)
    p = w.CurvePoint.affine(2, 5)
    d = w.chord_tangent_add(e, p, p)
    assert e.contains(d)
    assert d == w.CurvePoint.affine(Fraction(-64, 25), Fraction(59, 125))


def test_off_curve_rejected():
    e = curve(0, 1)
    with pytest.raises(w.CurveError):
        w.chord_tangent_add(e, w.CurvePoint.affine(1, 1), w.O)


def test_group_law_oracle_properties():
    status, details = w.check_group_law_oracle()
    assert status == PASS, details


def test_translation_map_worked_example():
    phi = w.translation_map(0, 1)
    assert phi.apply(w.CurvePoint.affine(2, 3)) == w.CurvePoint.affine(-1, 0)
    with pytest.raises(w.CurveError):
        phi.apply(w.CurvePoint.affine(0, 5))  # on the excluded line s = a


def test_map_degree_bound():
    status, details = w.check_forward_map()
    assert status == PASS, details


def test_inverse_is_exact_identity():
    inv = w.invert_translation_map(w.A, w.B)
    fwd = w.translation_map(w.A, w.B)
    assert fwd.compose(inv).components() == (w.S, w.T)
    assert inv.compose(fwd).components() == (w.S, w.T)
    # equality in K is exact: two different translations do not cancel
    other = w.translation_map(w.A, w.B + 1)
    assert fwd.compose(other).components() != (w.S, w.T)


def test_inverse_round_trip_numeric():
    inv = w.invert_translation_map(0, 1)
    assert inv.apply(w.CurvePoint.affine(-1, 0)) == w.CurvePoint.affine(2, 3)


def test_finite_automorphism_orders():
    # exponents of zeta = e^(2 pi i/12): (1, -1), (-1, i), (zeta_3, -1)
    assert w.finite_automorphism(2, -2, 1) == ((0, 6), 2)
    assert w.finite_automorphism(4, 5, 0) == ((6, 3), 4)
    assert w.finite_automorphism(6, 0, 7) == ((4, 6), 6)


def test_exponent_rules_against_sympy():
    # the oracle substitutes (zeta^i x, zeta^j y) into the curve equation and
    # expands, for every (i, j); then p and q are set to zero or nonzero
    zeta = sympy.sqrt(3) / 2 + sympy.I / 2
    powers = [sympy.expand(zeta ** k) for k in range(12)]
    x, y, p, q = sympy.symbols("x y p q")
    f = y ** 2 - x ** 3 - p * x - q
    for i, j in itertools.product(range(12), repeat=2):
        cx, cy = powers[i], powers[j]
        order = next(k for k in range(1, 13)
                     if sympy.expand(cx ** k - 1) == 0
                     and sympy.expand(cy ** k - 1) == 0)
        assert w.mu12_order(i, j) == order, (i, j)
        image = f.subs({x: cx * x, y: cy * y}, simultaneous=True)
        residual = sympy.expand(image - cy ** 2 * f)
        for pv, qv in itertools.product((0, 6), (0, 4)):
            preserved = residual.subs({p: pv, q: qv}) == 0
            assert w.preserves_curve(i, j, pv, qv) == preserved, (i, j, pv, qv)


def test_finite_automorphism_shape_errors():
    with pytest.raises(w.CurveError):
        w.finite_automorphism(4, 1, 1)
    with pytest.raises(w.CurveError):
        w.finite_automorphism(6, 1, 1)
    with pytest.raises(w.CurveError):
        w.finite_automorphism(3, 0, 1)


def test_restriction_convention_uniform():
    sums = w.SumTable(curve(0, 1))
    samples = w._sample_points(sums, w.CurvePoint.affine(2, 3))
    convention, n = w.restriction_agreement(sums, w.CurvePoint.affine(0, 1),
                                            samples)
    assert convention == "addition-then-negation"
    assert n >= 20


def test_restriction_requires_on_curve_translation():
    sums = w.SumTable(curve(0, 1))
    with pytest.raises(w.CurveError):
        w.restriction_agreement(sums, w.CurvePoint.affine(1, 1), [])


def test_full_certificate():
    report = w.full_weierstrass_certificate()
    assert report.ok
    restriction = next(it for it in report.items
                       if it.id == "thm-2.2-restriction")
    assert "addition-then-negation" in restriction.details


fractions = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 50))


@settings(deadline=None)
@given(fractions, fractions, fractions, fractions)
def test_translate_is_an_involution(a, b, s, t):
    assume(s != a)
    s1, t1 = w.translate(a, b, s, t)
    assume(s1 != a)
    assert w.translate(a, b, s1, t1) == (s, t)


@settings(deadline=None)
@given(st.sampled_from(w._TEST_CURVES), st.integers(1, 12))
def test_translate_is_negated_addition_on_the_curves(test_curve, k):
    p, q, base, ab = test_curve
    e = curve(p, q)
    pt = w.multiples(w.SumTable(e), w.CurvePoint.affine(*base), k)[-1]
    ab = w.CurvePoint.affine(*ab)
    assume(not pt.at_infinity and pt.x != ab.x)
    image = w.CurvePoint.affine(*w.translate(ab.x, ab.y, pt.x, pt.y))
    assert image == e.neg(w.chord_tangent_add(e, pt, ab))


@settings(deadline=None)
@given(fractions, fractions, fractions)
def test_apply_on_the_excluded_line_is_a_curve_error(a, b, t):
    # check_restriction skips such points by catching CurveError
    with pytest.raises(w.CurveError, match="undefined"):
        w.translation_map(a, b).apply(w.CurvePoint.affine(a, t))


def _contains_by_fractions(e, pt):
    """The curve equation in Fraction arithmetic: the oracle for the
    gcd-free contains."""
    return pt.y ** 2 == pt.x ** 3 + e.p * pt.x + e.q


@settings(deadline=None, max_examples=200)
@given(fractions, fractions, fractions, st.one_of(st.just(0), fractions))
def test_contains_against_fraction_arithmetic(p, x, y, shift):
    # q puts (x, y) on the curve; a nonzero shift of y takes it off
    q = y * y - x ** 3 - p * x
    assume(4 * p ** 3 + 27 * q ** 2 != 0)
    e = curve(p, q)
    for pt in (w.CurvePoint.affine(x, y), w.CurvePoint.affine(x, y + shift)):
        assert e.contains(pt) == _contains_by_fractions(e, pt)
    assert e.contains(w.CurvePoint.affine(x, y))


@settings(deadline=None, max_examples=200)
@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(2, 9), fractions, fractions)
def test_contains_on_integral_curves(p, u, c, k, x, y):
    # integer p and q (Q = S = 1 in the cleared equation): (u, c) is on the
    # curve through it, (u, c/k) and (u/k^2, c/k^3) need not be, nor need a
    # random point
    q = c * c - u ** 3 - p * u
    assume(4 * p ** 3 + 27 * q ** 2 != 0)
    e = curve(p, q)
    assert e.contains(w.CurvePoint.affine(u, c))
    for pt in (w.CurvePoint.affine(u, Fraction(c, k)),
               w.CurvePoint.affine(Fraction(u, k * k), Fraction(c, k ** 3)),
               w.CurvePoint.affine(x, y)):
        assert e.contains(pt) == _contains_by_fractions(e, pt)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(w._TEST_CURVES), st.integers(1, 42), fractions)
def test_contains_at_large_heights(test_curve, k, shift):
    # multiples of the base point have numerators of hundreds of digits
    p, q, base, _ = test_curve
    e = curve(p, q)
    pt = w.multiples(w.SumTable(e), w.CurvePoint.affine(*base), k)[-1]
    assume(not pt.at_infinity)
    assert e.contains(pt) and _contains_by_fractions(e, pt)
    # the shifted point is on the curve iff it is pt or -pt
    off = w.CurvePoint.affine(pt.x, pt.y + shift)
    assert e.contains(off) == _contains_by_fractions(e, off) == (
        shift == 0 or shift == -2 * pt.y)


# curves with rational p = P/Q and q = R/S, Q and S > 1, and a base point
# of infinite order on each
RATIONAL_CURVES = {
    "x^3 + x/2 - 1/2": (Fraction(1, 2), Fraction(-1, 2), (1, 1)),
    "x^3 + x/3 + 17/24": (Fraction(1, 3), Fraction(17, 24),
                          (Fraction(1, 2), 1)),
    # the roots 1/2, 1/3 and -5/6 are 2-torsion points
    "x^3 - 19x/36 + 5/36": (Fraction(-19, 36), Fraction(5, 36), None),
}


def _nth_multiple(name, k):
    p, q, base = RATIONAL_CURVES[name]
    return w.multiples(w.SumTable(curve(p, q)), w.CurvePoint.affine(*base),
                       k)[-1]


def _shifted(name, k, dy):
    pt = _nth_multiple(name, k)
    return w.CurvePoint.affine(pt.x, pt.y + dy)


# (curve, point, whether e^2 divides b^3 Q S, whether the point is on the
# curve): contains divides first, so each way past the division is a row
CONTAINS_FALSIFIERS = [
    # e^2 does not divide b^3 Q S: off the curve without the products
    ("x^3 + x/2 - 1/2", lambda: w.CurvePoint.affine(1, Fraction(1, 3)),
     False, False),
    ("x^3 + x/2 - 1/2",
     lambda: w.CurvePoint.affine(Fraction(17, 16), Fraction(-71, 256)),
     False, False),
    ("x^3 + x/3 + 17/24",
     lambda: w.CurvePoint.affine(Fraction(1, 2), Fraction(1, 5)),
     False, False),
    # at a root the bracket is 0, and so is the floor of b^3 Q S / e^2 once
    # e^2 exceeds b^3 Q S: only the remainder tells this point off
    ("x^3 - 19x/36 + 5/36",
     lambda: w.CurvePoint.affine(Fraction(1, 2), Fraction(1, 103)),
     False, False),
    # e^2 divides b^3 Q S but the numerators differ: off the curve
    ("x^3 + x/2 - 1/2", lambda: w.CurvePoint.affine(1, 3), True, False),
    ("x^3 + x/2 - 1/2",
     lambda: w.CurvePoint.affine(Fraction(17, 16), Fraction(-71, 128)),
     True, False),
    ("x^3 + x/2 - 1/2", lambda: _shifted("x^3 + x/2 - 1/2", 30, 1),
     True, False),
    ("x^3 + x/3 + 17/24", lambda: _shifted("x^3 + x/3 + 17/24", 30, -1),
     True, False),
    # multiples, at large height too: on the curve (the test checks each
    # row's negative as well)
    ("x^3 + x/2 - 1/2",
     lambda: w.CurvePoint.affine(Fraction(17, 16), Fraction(-71, 64)),
     True, True),
    ("x^3 + x/2 - 1/2", lambda: _nth_multiple("x^3 + x/2 - 1/2", 30),
     True, True),
    ("x^3 - 19x/36 + 5/36",
     lambda: w.CurvePoint.affine(Fraction(-5, 6), 0), True, True),
    ("x^3 + x/3 + 17/24", lambda: _nth_multiple("x^3 + x/3 + 17/24", 30),
     True, True),
]


@pytest.mark.parametrize("name, point, divides, on", CONTAINS_FALSIFIERS)
def test_contains_divides_first_on_rational_curves(name, point, divides, on):
    p, q, _ = RATIONAL_CURVES[name]
    e, pt = curve(p, q), point()
    assert e.p.denominator > 1 and e.q.denominator > 1
    # the row is of the kind it claims
    a, b, c, d = pt.key
    assert (b ** 3 * e.p.denominator * e.q.denominator % (d * d) == 0) \
        == divides
    for _ in range(2):  # the second call may read the record of points on it
        assert e.contains(pt) == _contains_by_fractions(e, pt) == on
    assert e.contains(e.neg(pt)) == on


def _add_by_fractions(e, p1, p2):
    """The textbook chord-tangent formulas in Fraction arithmetic, with
    y3 = lam (x1 - x3) - y1: the oracle for the integer chord_tangent_add."""
    if p1.at_infinity:
        return p2
    if p2.at_infinity:
        return p1
    if p1.x == p2.x:
        if p1.y == -p2.y:
            return w.O
        slope = (3 * p1.x ** 2 + e.p) / (2 * p1.y)
    else:
        slope = (p2.y - p1.y) / (p2.x - p1.x)
    x3 = slope ** 2 - p1.x - p2.x
    return w.CurvePoint.affine(x3, slope * (p1.x - x3) - p1.y)


@settings(deadline=None, max_examples=300)
@given(fractions, fractions, fractions, fractions,
       st.sampled_from(["distinct", "double", "negate", "O+P", "P+O"]))
def test_integer_addition_against_fraction_formulas(x1, y1, x2, y2, case):
    # the curve through (x1, y1) and (x2, y2): rational p and q
    assume(x1 != x2)
    p = (y2 * y2 - y1 * y1 - x2 ** 3 + x1 ** 3) / (x2 - x1)
    q = y1 * y1 - x1 ** 3 - p * x1
    assume(4 * p ** 3 + 27 * q ** 2 != 0)
    e = curve(p, q)
    p1, p2 = w.CurvePoint.affine(x1, y1), w.CurvePoint.affine(x2, y2)
    p1, p2 = {"distinct": (p1, p2), "double": (p1, p1),
              "negate": (p1, e.neg(p1)), "O+P": (w.O, p1),
              "P+O": (p1, w.O)}[case]
    got = w.chord_tangent_add(e, p1, p2)
    assert got == _add_by_fractions(e, p1, p2)
    assert e.contains(got)
    if not got.at_infinity:  # both coordinates in lowest terms
        assert got == w.CurvePoint.affine(got.x, got.y)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(w._TEST_CURVES), st.integers(1, 42), st.integers(1, 42))
def test_integer_addition_at_large_heights(test_curve, j, k):
    # sums of two sample multiples; the 42nd multiple of (2, 5) on
    # y^2 = x^3 + 17 has an 814-digit x-denominator
    p, q, base, _ = test_curve
    e = curve(p, q)
    pts = w.multiples(w.SumTable(e), w.CurvePoint.affine(*base), 42)
    for p1, p2 in ((pts[j - 1], pts[k - 1]), (pts[j - 1], pts[j - 1])):
        assert w.chord_tangent_add(e, p1, p2) == _add_by_fractions(e, p1, p2)


def test_sample_multiples_against_fraction_formulas():
    e = curve(0, 17)
    base = w.CurvePoint.affine(2, 5)
    acc, want = base, []
    for _ in range(42):
        want.append(acc)
        acc = _add_by_fractions(e, acc, base)
    assert w.multiples(w.SumTable(e), base, 42) == want
    assert len(str(want[-1].x.denominator)) == 814


def test_off_curve_second_summand_rejected():
    e = curve(0, 1)
    with pytest.raises(w.CurveError):
        w.chord_tangent_add(e, w.CurvePoint.affine(2, 3),
                            w.CurvePoint.affine(1, 1))


def _count_sums(monkeypatch):
    """Record (p, q, summands) for every chord_tangent_add call."""
    calls = []
    add = w.chord_tangent_add

    def counting(e, p1, p2):
        calls.append((e.p, e.q, p1.key, p2.key))
        return add(e, p1, p2)
    monkeypatch.setattr(w, "chord_tangent_add", counting)
    return calls


def test_restriction_computes_each_sum_once(monkeypatch):
    calls = _count_sums(monkeypatch)
    status, details = w.check_restriction()
    assert status == PASS, details
    assert len(calls) == len(set(calls))
    # on y^2 = x^3 + 17 the translation point is the base, so the 42 steps
    # of the sample multiples are every sum restriction_agreement reads
    assert sum(1 for c in calls if (c[0], c[1]) == (0, 17)) == 42


def test_group_law_oracle_computes_each_sum_once(monkeypatch):
    calls = _count_sums(monkeypatch)
    status, details = w.check_group_law_oracle()
    assert status == PASS, details
    assert len(calls) == len(set(calls))


def test_sum_table_keeps_the_order_of_the_summands(monkeypatch):
    # p + q and q + p are two entries, so the commutativity check compares
    # two computations
    calls = _count_sums(monkeypatch)
    sums = w.SumTable(curve(0, 17))
    p, q = w.CurvePoint.affine(2, 5), w.CurvePoint.affine(-1, 4)
    assert sums.add(p, q) == sums.add(q, p) == sums.add(p, q)
    assert len(calls) == 2


def test_field_over_the_integers():
    # K is the ring Z[s, t, a, b] and the identities run on its unreduced
    # quotients; Fraction translation points coerce into them, phi o phi =
    # id holds there, and a wrong composition is still told apart
    gens = [q.num for q in (w.S, w.T, w.A, w.B)]
    assert all(isinstance(g, w.Poly) for g in gens)
    assert [[g.degree(i) for i in range(4)] for g in gens] == [
        [int(i == j) for i in range(4)] for j in range(4)]
    a, b = Fraction(1, 2), Fraction(-3, 7)
    phi = w.invert_translation_map(a, b)
    components = phi.compose(phi).components()
    assert components == (w.S, w.T)
    for c in components:
        for x in (c.num, c.den):
            assert isinstance(w.as_poly(x), w.Poly)
            assert all(type(n) is int for n in w.as_poly(x).terms.values())
    other = w.translation_map(a, b + Fraction(1, 3))
    assert phi.compose(other).components() != (w.S, w.T)


# sympy's rational-function field over the same variables: the oracle for
# the unreduced quotients
F, *F_GENS = field("s,t,a,b", sympy.ZZ)
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}
constants = st.one_of(st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-9, 9),
                                st.integers(1, 9)))
leaves = st.one_of(st.integers(0, 3).map(lambda i: ("var", i)),
                   constants.map(lambda c: ("const", c)))
binary = st.sampled_from("+-*/")
# a power's base is a leaf or one operation on two leaves, so nested powers
# cannot blow the degrees up; sympy refuses 0**0, so the exponent is never 0
powers = st.tuples(st.just("**"),
                   leaves | st.tuples(binary, leaves, leaves),
                   st.sampled_from([-2, -1, 1, 2, 3]))
expressions = st.recursive(leaves | powers,
                           lambda sub: st.tuples(binary, sub, sub),
                           max_leaves=8)


def _evaluate(tree, gens, const, power=operator.pow):
    """The tree's value, or None where it divides by zero."""
    kind = tree[0]
    if kind == "var":
        return gens[tree[1]]
    if kind == "const":
        return const(tree[1])
    x = _evaluate(tree[1], gens, const, power)
    y = tree[2] if kind == "**" else _evaluate(tree[2], gens, const, power)
    if x is None or y is None:
        return None
    if isinstance(x, int) and (kind == "**" or isinstance(y, int)):
        x = Fraction(x)  # int / int and int ** -n would give floats
    try:
        return power(x, y) if kind == "**" else OPS[kind](x, y)
    except ZeroDivisionError:
        return None


def _in_field(x):
    """An int or an element of K read into F: each coefficient times its
    monomial, summed."""
    total = F(0)
    for m, c in w.as_poly(x).terms.items():
        term = F(c)
        for i, g in enumerate(F_GENS):
            term *= g ** (m >> 16 * i & 0xFFFF)
        total += term
    return total


def _quotient_of(tree):
    # constants stay ints and Fractions, so their coercion is exercised
    value = _evaluate(tree, (w.S, w.T, w.A, w.B), lambda c: c)
    return None if value is None else w.Quotient(1) * value


def _field_of(tree):
    # sympy's field leaves the sign of x ** -n unnormalized (F(-1) ** -1 is
    # 1/-1, which its == tells apart from -1), so the oracle divides instead
    return _evaluate(tree, F_GENS, lambda c: F(c.numerator) / c.denominator,
                     lambda x, n: x ** n if n > 0 else 1 / x ** -n)


@settings(deadline=None, max_examples=200)
@given(expressions, expressions, expressions)
def test_quotients_against_the_field(e1, e2, d):
    q1, q2, qd = map(_quotient_of, (e1, e2, d))
    f1, f2, fd = map(_field_of, (e1, e2, d))
    # a division by zero happens on both sides or on neither
    assert (q1 is None, q2 is None, qd is None) == (
        f1 is None, f2 is None, fd is None)
    assume(q1 is not None and q2 is not None)
    # num/den read back into the field is the field's own value
    for q, f in ((q1, f1), (q2, f2)):
        assert _in_field(q.num) / _in_field(q.den) == f
    assert (q1 == q2) == (f1 == f2)
    assert (q1 != q2) == (f1 != f2)
    assert q1 == q1 + 0 and not q1 != 1 * q1
    if qd is not None and fd != 0:
        # an equal rewrite is equal, a perturbed expression is not
        assert q1 == q1 * qd / qd and q1 == q1 + qd - qd
        assert q1 != q1 + qd and not q1 == q1 + qd
    # dividing by the zero polynomial raises
    for zero in (w.S - w.S, w.A * w.B - w.B * w.A, w.Quotient(0)):
        with pytest.raises(ZeroDivisionError):
            q1 / zero
        with pytest.raises(ZeroDivisionError):
            zero ** -1


# sympy's ring over the same variables: the oracle for K's arithmetic
R, *R_GENS = ring("s,t,a,b", sympy.ZZ)
ring_leaves = st.one_of(st.integers(0, 3).map(lambda i: ("var", i)),
                        st.integers(-9, 9).map(lambda c: ("const", c)))
ring_binary = st.sampled_from("+-*")
ring_powers = st.tuples(st.just("**"),
                        ring_leaves | st.tuples(ring_binary, ring_leaves,
                                                ring_leaves),
                        st.integers(1, 3))  # sympy refuses 0**0
ring_expressions = st.recursive(ring_leaves | ring_powers,
                                lambda sub: st.tuples(ring_binary, sub, sub),
                                max_leaves=10)


def _packed(exponents):
    """The packed key of K's monomial with these exponents of (s, t, a, b):
    16 bits a variable."""
    return sum(e << 16 * i for i, e in enumerate(exponents))


def _ring_value(tree, gens, const):
    kind = tree[0]
    if kind == "var":
        return gens[tree[1]]
    if kind == "const":
        return const(tree[1])
    x = _ring_value(tree[1], gens, const)
    if kind == "**":
        return x ** tree[2]
    return OPS[kind](x, _ring_value(tree[2], gens, const))


@settings(deadline=None, max_examples=300)
@given(ring_expressions, ring_expressions, st.booleans())
def test_ring_against_sympy(e1, e2, coerce):
    # constants enter K as Polys or, to exercise the coercion, as ints
    const = w.as_poly if coerce else (lambda c: c)
    gens = [q.num for q in (w.S, w.T, w.A, w.B)]
    ours = [w.as_poly(_ring_value(e, gens, const)) for e in (e1, e2)]
    theirs = [_ring_value(e, R_GENS, R) for e in (e1, e2)]
    for x, y in zip(ours, theirs):
        assert x.terms == {_packed(m): int(c) for m, c in y.terms()}
        assert [x.degree(i) for i in range(4)] == [y.degree(i)
                                                   for i in range(4)]
        assert bool(x) == bool(y)
        assert x.deg >= max((sum(m) for m in y.monoms()), default=0)
    assert (ours[0] == ours[1]) == (theirs[0] == theirs[1])
    assert (ours[0] != ours[1]) == (theirs[0] != theirs[1])
    assert (ours[0] == 1) == (theirs[0] == 1)


def test_an_exponent_past_the_field_raises():
    # 16 bits a variable: s^65535 fits, s^65536 would carry into t's field;
    # the guard bounds the total degree, so it also refuses (top + t) * t,
    # whose fields would not overflow
    s, t = w.S.num, w.T.num
    top = (s ** 255) ** 257
    assert [top.degree(i) for i in range(4)] == [65535, 0, 0, 0]
    assert top != t and s ** 0 == 1
    for overflow in (lambda: top * s, lambda: (top + t) * t,
                     lambda: (s ** 256) ** 256, lambda: top * top):
        with pytest.raises(OverflowError):
            overflow()
    with pytest.raises(ValueError):
        s ** -1


def test_inverse_check_rejects_a_wrong_formula(monkeypatch):
    # t' without its final + b is no involution, generically, at (0, 1) or
    # at a rational point
    def wrong(a, b, s, t):
        lam = (t - b) / (s - a)
        s2 = lam ** 2 - s - a
        return s2, lam * (s2 - a)
    monkeypatch.setattr(w, "translate", wrong)
    for ab in ((w.A, w.B), (0, 1), (Fraction(1, 2), Fraction(-3, 7))):
        with pytest.raises(w.CurveError, match="residual"):
            w.invert_translation_map(*ab)
    inverse = next(it for it in w.full_weierstrass_certificate().items
                   if it.id == "thm-2.2-inverse")
    # a problem line per proof, each residual summarized by its component,
    # term count and degrees, not dumped and not a crash
    assert inverse.status == FAIL
    assert inverse.details.startswith(
        "generic (a, b): inverse composition residual in s: ")
    assert "curve (p=0, q=1): inverse composition residual in s: " \
        in inverse.details
    assert "\n" not in inverse.details and len(inverse.details) < 1000
    assert "**" not in inverse.details


def test_certificate_takes_no_polynomial_gcd(monkeypatch):
    # the identities are cross-multiplications in k3cert's own K, so no
    # sympy polynomial arithmetic runs, and a gcd or a cancellation in the
    # ring is never needed
    def refuse(*args, **kwargs):
        raise AssertionError("sympy polynomial arithmetic ran")
    for name in ("__mul__", "__add__", "__sub__", "__pow__", "gcd",
                 "cofactors", "cancel"):
        monkeypatch.setattr(PolyElement, name, refuse)
    report = w.full_weierstrass_certificate()
    assert [it.status for it in report.items] == [PASS] * 5, report.items


def test_forward_map_check_sees_a_degree_4_term(monkeypatch):
    # the unreduced degrees bound the reduced ones, and a real s^4 in s'
    # survives the reduction: the degree check must name it
    translate = w.translate

    def planted(a, b, s, t):
        s2, t2 = translate(a, b, s, t)
        return s2 + s ** 4, t2
    monkeypatch.setattr(w, "translate", planted)
    item = next(it for it in w.full_weierstrass_certificate().items
                if it.id == "thm-2.2-map")
    assert item.status == FAIL
    assert "component degree in s exceeds 3" in item.details
    assert "degree in t" not in item.details


@pytest.mark.parametrize("test_curve", w._TEST_CURVES)
def test_restriction_applies_the_map_once_per_distinct_sample(test_curve,
                                                              monkeypatch):
    # on the torsion curves (0, 1) and (-2, 1) the multiples repeat: each
    # distinct sample is mapped once, and every sample is still counted
    p, q, base, ab = test_curve
    sums = w.SumTable(curve(p, q))
    samples = w._sample_points(sums, w.CurvePoint.affine(*base))
    ab = w.CurvePoint.affine(*ab)
    usable = [pt for pt in samples
              if pt.x != ab.x and not sums.add(pt, ab).at_infinity]
    applied = []
    apply = w.RationalMap.apply

    def counting(self, pt):
        applied.append(pt.key)
        return apply(self, pt)
    monkeypatch.setattr(w.RationalMap, "apply", counting)
    _, checked = w.restriction_agreement(sums, ab, samples)
    assert checked == len(usable) >= 20
    assert len(applied) == len(set(applied)) == len({pt.key for pt in usable})
    if (p, q) != (0, 17):
        assert len(applied) < checked


def test_two_torsion_round_trip_once_per_distinct_point(monkeypatch):
    # the 2-torsion check draws 6 samples on y^2 = x^3 - 2x + 1 that are 3
    # points; it skips x = 1 and maps each other distinct point through phi
    # and back once
    samples = w._sample_points(w.SumTable(curve(-2, 1)),
                               w.CurvePoint.affine(0, 1), 8)
    distinct = {pt.key for pt in samples if pt.x != 1}
    assert len(samples) == 6 and len(distinct) == 2
    applied = []
    apply = w.RationalMap.apply

    def counting(self, pt):
        applied.append(pt.key)
        return apply(self, pt)
    # the agreement runs no apply here, so every call is the round trip's
    monkeypatch.setattr(w, "restriction_agreement",
                        lambda sums, ab, samples: ("plain-addition", 20))
    monkeypatch.setattr(w.RationalMap, "apply", counting)
    assert w.check_restriction() == (
        PASS, "uniform convention 'plain-addition' across all curves "
              "against the chord-tangent oracle")
    assert len(applied) == 2 * len(distinct)
    assert set(applied[::2]) == distinct


def test_each_curve_point_is_checked_once(monkeypatch):
    # a certificate round evaluates one membership equation per distinct
    # affine (curve, point up to sign): 48, the restriction images being
    # negatives of checked multiples; the 94 (curve, point) pairs, O on
    # each of the 3 curves among them, gave 91 equations with the sign
    # kept and 436 before the record, one per summand of each of the 193
    # sums and per image or translation point
    w._curve.cache_clear()
    evaluated, pairs = [], set()
    contains = w.WeierstrassCurve.contains

    def counting(self, pt):
        pairs.add((self.p, self.q, pt.key))
        if not pt.at_infinity:
            a, b, c, e = pt.key
            key = (self.p, self.q, (a, b, abs(c), e))
            if key[2] not in self._on_curve:
                evaluated.append(key)
        return contains(self, pt)
    monkeypatch.setattr(w.WeierstrassCurve, "contains", counting)
    sums = _count_sums(monkeypatch)
    report = w.full_weierstrass_certificate()
    assert [item.status for item in report.items] == [PASS] * 5
    assert len(sums) == 193
    assert len(evaluated) == len(set(evaluated)) == 48
    assert len(pairs) == 94


def test_an_off_curve_point_is_refused_at_every_call():
    # only points found on the curve are recorded, one key for P and -P;
    # a point off it, or its negative, is checked and refused again each
    # time, in either summand
    e = curve(0, 1)
    on, off = w.CurvePoint.affine(2, 3), w.CurvePoint.affine(1, 1)
    for _ in range(2):
        for bad in (off, e.neg(off)):
            assert e.contains(on) and e.contains(e.neg(on))
            assert not e.contains(bad)
            for p1, p2 in ((bad, on), (on, bad)):
                with pytest.raises(w.CurveError, match="not on the curve"):
                    w.chord_tangent_add(e, p1, p2)
    assert e._on_curve == {on.key}
    # the record belongs to its curve: (2, 3) is not on y^2 = x^3 + 17
    assert not curve(0, 17).contains(on)
