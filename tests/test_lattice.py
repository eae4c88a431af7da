import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from k3cert import quartic
from k3cert.isometry import (
    Isometry, compose, discriminant_action, reflection_in)
from k3cert.lattice import (
    DimensionMismatch,
    IntegerLattice,
    LatticeError,
    NotABasis,
    adjugate,
    change_basis,
    det_int,
    discriminant_group,
    form_basis,
    is_dual_vector,
    is_zero_polynomial,
    lattice_points,
    mat_mul,
    mat_vec,
    reduce_mod_lattice,
    smith_normal_form,
    solve_norm_system,
    solve_pairing_norm,
)
from k3cert.quadfield import QuadExt

GRAM3 = ((4, 1, 1), (1, -2, 0), (1, 0, -2))


@pytest.fixture
def lat3():
    return IntegerLattice(gram=GRAM3)


def test_gram_validation():
    with pytest.raises(LatticeError):
        IntegerLattice(gram=((1, 0), (0, 2)))  # odd diagonal
    with pytest.raises(LatticeError):
        IntegerLattice(gram=((2, 1), (0, 2)))  # not symmetric
    with pytest.raises(LatticeError):
        IntegerLattice(gram=((2, 2), (2, 2)))  # degenerate


@pytest.mark.parametrize("entry", [4.7, Fraction(9, 2), "4", 4.0,
                                   Fraction(4)])
def test_gram_entries_must_be_integers(entry):
    # int() would read each of these as 4 without a word
    with pytest.raises(LatticeError, match="gram entries must be integers"):
        IntegerLattice(gram=((entry, 1), (1, -2)))


def test_inner_products(lat3):
    assert lat3.norm((1, 0, 0)) == 4
    assert lat3.inner((1, 0, 0), (0, 1, 0)) == 1
    assert lat3.norm((0, 1, 0)) == -2
    assert lat3.determinant() == 20
    with pytest.raises(DimensionMismatch):
        lat3.norm((1, 0))


def test_det_int_matches_fraction_elimination():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        # cofactor expansion as an independent reference
        def cof(a):
            if len(a) == 1:
                return a[0][0]
            total = 0
            for j in range(len(a)):
                minor = [row[:j] + row[j + 1:] for row in a[1:]]
                total += (-1) ** j * a[0][j] * cof(minor)
            return total
        assert det_int(m) == cof(m)


def test_smith_normal_form_properties():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = tuple(tuple(rng.randint(-8, 8) for _ in range(cols))
                  for _ in range(rows))
        u, d, v = smith_normal_form(m)
        assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1
        assert mat_mul(u, mat_mul(m, v)) == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a != 0:
                assert b % a == 0


def test_discriminant_group_z20(lat3):
    disc = discriminant_group(lat3)
    assert disc.invariant_factors == (20,)
    assert disc.order == 20
    v20 = tuple(Fraction(c, 20) for c in (-6, 7, -3))
    assert disc.element_order(v20) == 20
    assert is_dual_vector(lat3, v20)
    third = (Fraction(1, 3), 0, 0)
    assert not is_dual_vector(lat3, third)
    assert disc.coordinates_of(third) is None
    with pytest.raises(LatticeError, match="not a dual vector"):
        disc.element_order(third)


def test_discriminant_group_rank2():
    lat = IntegerLattice(gram=((4, 24), (24, 4)))
    disc = discriminant_group(lat)
    assert disc.invariant_factors == (4, 140)
    assert disc.order == 560 == abs(lat.determinant())


@st.composite
def even_lattices(draw, ranks=(2, 3), max_det=400):
    """Random even nondegenerate Gram matrices of rank ranks[0]-ranks[1],
    |det| <= max_det (any determinant when max_det is None)."""
    n = draw(st.integers(*ranks))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-5, 5))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-6, 6))
    det = abs(det_int(gram))
    assume(det and (max_det is None or det <= max_det))
    return IntegerLattice(gram=gram)


def _coordinates(d):
    """int, Fraction or QuadExt in Q(sqrt(d)) coordinates, mixed freely."""
    small = st.integers(-10 ** 6, 10 ** 6)
    fractions = st.builds(Fraction, small, st.integers(1, 999))
    return st.one_of(small, fractions,
                     st.builds(lambda a, b: QuadExt(a, b, d), fractions, small))


@settings(deadline=None)
@given(even_lattices((1, 4), max_det=None), st.sampled_from([2, 3, 35]),
       st.data())
def test_inner_against_the_double_sum(lat, d, data):
    n = lat.rank
    g = lat.gram
    vectors = st.lists(_coordinates(d), min_size=n, max_size=n).map(tuple)
    x, y = data.draw(vectors), data.draw(vectors)
    naive = sum(x[i] * g[i][j] * y[j] for i in range(n) for j in range(n))
    assert lat.inner(x, y) == naive
    assert lat.inner(y, x) == naive
    assert lat.norm(x) == sum(x[i] * g[i][j] * x[j]
                              for i in range(n) for j in range(n))
    # a vector of the wrong length is rejected, on either side
    k = data.draw(st.sampled_from([m for m in (n - 1, n + 1) if m >= 0]))
    bad = (1,) * k
    message = "vector of length %d in rank-%d lattice" % (k, n)
    for args in ((bad, y), (x, bad)):
        with pytest.raises(DimensionMismatch, match=message):
            lat.inner(*args)


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_adjugate_times_matrix_is_the_determinant(m):
    n = len(m)
    adj = adjugate(m)
    scalar = tuple(tuple(det_int(m) * int(i == j) for j in range(n))
                   for i in range(n))
    assert mat_mul(adj, m) == scalar == mat_mul(m, adj)


def _scaled_cosets(disc):
    """The scan of every coset, each also as the integer vector e * rep mod e
    for e = |NS*/NS|, so the oracles below need no fractions."""
    e = disc.order
    return e, [(ks, rep, tuple(int(c * e) for c in rep))
               for ks, rep in disc.elements()]


def _scan_order(v, e):
    """Order of v mod e Z^n by adding v to itself until it reaches 0."""
    k, acc = 1, v
    while any(acc):
        k += 1
        acc = tuple((a + b) % e for a, b in zip(acc, v))
    return k


def _scan_action(g, cosets, e):
    """+-id classification of g from the image of every coset."""
    images = [(tuple(c % e for c in g.apply(v)), v) for _, _, v in cosets]
    if all(img == v for img, v in images):
        return "identity"
    if all(img == tuple(-c % e for c in v) for img, v in images):
        return "negation"
    return "other"


@settings(deadline=None)
@given(even_lattices(), st.data())
def test_discriminant_coordinates_against_the_scan(lat, data):
    disc = discriminant_group(lat)
    n = lat.rank
    shift = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    e, cosets = _scaled_cosets(disc)
    for ks, rep, v in cosets:
        u = tuple(c + s for c, s in zip(rep, shift))
        assert disc.coordinates_of(u) == ks
        assert disc.element_order(u) == _scan_order(v, e)
    # u plus e_j / m, m > gcd(column j), pairs non-integrally with the lattice
    j = data.draw(st.integers(0, n - 1))
    m = math.gcd(*(row[j] for row in lat.gram)) + 1
    off = tuple(c + Fraction(int(i == j), m) for i, c in enumerate(u))
    assert not is_dual_vector(lat, off)
    assert disc.coordinates_of(off) is None
    with pytest.raises(LatticeError):
        disc.element_order(off)


def _small_isometries(lat):
    """+-id and every integral reflection in a vector of {-1, 0, 1}^n."""
    n = lat.rank
    isometries = {Isometry(lat, [[s * int(i == j) for j in range(n)]
                                 for i in range(n)]) for s in (1, -1)}
    for w in product(range(-1, 2), repeat=n):
        if lat.norm(w) != 0:
            try:
                isometries.add(reflection_in(lat, w))
            except LatticeError:
                pass  # the reflection is not integral on the lattice
    return sorted(isometries, key=lambda g: g.matrix)


@settings(deadline=None)
@given(even_lattices())
def test_discriminant_action_against_the_scan(lat):
    disc = discriminant_group(lat)
    e, cosets = _scaled_cosets(disc)
    for g in _small_isometries(lat):
        assert discriminant_action(g, disc) == _scan_action(g, cosets, e)


@settings(deadline=None)
@given(even_lattices(), st.data())
def test_discriminant_action_on_products_against_the_scan(lat, data):
    # words in the reflections act on NS*/NS by more than +-id and the
    # reflections alone, and their entries outgrow the denominators
    disc = discriminant_group(lat)
    e, cosets = _scaled_cosets(disc)
    word = data.draw(st.lists(st.sampled_from(_small_isometries(lat)),
                              min_size=2, max_size=6))
    g = word[0]
    for h in word[1:]:
        g = compose(g, h)
    assert discriminant_action(g, disc) == _scan_action(g, cosets, e)


def _fraction_sum_dual(lat, u):
    """The definition: every pairing sum_j u_j G_ij, in Fractions, is an
    integer."""
    n = lat.rank
    return all(sum((Fraction(u[j]) * lat.gram[i][j] for j in range(n)),
                   Fraction(0)).denominator == 1 for i in range(n))


@settings(deadline=None)
@given(even_lattices((1, 4), max_det=None), st.data())
def test_is_dual_vector_against_the_fraction_sums(lat, data):
    n = lat.rank
    # ints, and Fractions from unreduced numerator/denominator pairs with
    # either sign
    coords = st.one_of(
        st.integers(-50, 50),
        st.builds(Fraction, st.integers(-120, 120),
                  st.integers(-24, 24).filter(bool)))
    u = tuple(data.draw(coords) for _ in range(n))
    assert is_dual_vector(lat, u) == _fraction_sum_dual(lat, u)
    # a dual vector: G^-1 times an integer vector, plus a lattice vector
    w = data.draw(st.tuples(*[st.integers(-9, 9)] * n))
    shift = data.draw(st.tuples(*[st.integers(-9, 9)] * n))
    dual = tuple(Fraction(c, lat.determinant()) + s
                 for c, s in zip(mat_vec(adjugate(lat.gram), w), shift))
    assert is_dual_vector(lat, dual) and _fraction_sum_dual(lat, dual)
    assert is_dual_vector(lat, tuple(-c for c in dual))


def _fraction_coordinates(disc, u):
    """The coset coordinates as Fraction sums: d_i (r_i . u) mod d_i."""
    return tuple(int(d * sum(r * c for r, c in zip(row, u))) % d
                 for d, row in zip(disc.invariant_factors,
                                   disc.coordinate_rows))


@settings(deadline=None)
@given(even_lattices((1, 4), max_det=None), st.data())
def test_coordinates_of_against_the_fraction_sums(lat, data):
    disc = discriminant_group(lat)
    n = lat.rank
    # a dual vector: G^-1 times an integer vector, plus a lattice vector
    w = data.draw(st.tuples(*[st.integers(-30, 30)] * n))
    shift = data.draw(st.tuples(*[st.integers(-30, 30)] * n))
    det = lat.determinant()
    dual = tuple(Fraction(c, det) + s
                 for c, s in zip(mat_vec(adjugate(lat.gram), w), shift))
    assert disc.coordinates_of(dual) == _fraction_coordinates(disc, dual)
    # any vector: None exactly off the dual lattice
    u = tuple(data.draw(st.builds(Fraction, st.integers(-120, 120),
                                  st.integers(1, 24))) for _ in range(n))
    got = disc.coordinates_of(u)
    if _fraction_sum_dual(lat, u):
        assert got == _fraction_coordinates(disc, u)
    else:
        assert got is None


def _action_per_call(m, disc):
    """discriminant_action with each generator's lcm of denominators and
    scaled vector computed on the call, not read from the group."""
    scaled = []
    for u in disc.generators:
        den = math.lcm(*(c.denominator for c in u))
        w = tuple(c.numerator * (den // c.denominator) for c in u)
        scaled.append((mat_vec(m, w), w, den))
    for kind, sign in (("identity", 1), ("negation", -1)):
        if all((a - sign * b) % den == 0
               for gw, w, den in scaled for a, b in zip(gw, w)):
            return kind
    return "other"


@settings(deadline=None)
@given(even_lattices(), st.data())
def test_precomputed_action_against_the_per_call_computation(lat, data):
    disc = discriminant_group(lat)
    assert disc.scaled_generators == tuple(
        tuple(c.numerator * (d // c.denominator) for c in g)
        for d, g in zip(disc.invariant_factors, disc.generators))
    assert all(math.lcm(*(c.denominator for c in g)) == d
               for d, g in zip(disc.invariant_factors, disc.generators))
    word = data.draw(st.lists(st.sampled_from(_small_isometries(lat)),
                              min_size=1, max_size=4))
    g = word[0]
    for h in word[1:]:
        g = compose(g, h)
    want = _action_per_call(g.matrix, disc)
    # an Isometry and its bare matrix are classified alike
    assert discriminant_action(g, disc) == want
    assert discriminant_action(g.matrix, disc) == want


@settings(deadline=None)
@given(even_lattices())
def test_smith_normal_form_invariants(lat):
    m = lat.gram
    n = lat.rank
    for a in (m, m[:n - 1], tuple(zip(*m))[1:]):
        u, d, v = smith_normal_form(a)
        if a is m:
            assert math.prod(d[i][i] for i in range(n)) == abs(lat.determinant())
        assert mat_mul(u, mat_mul(a, v)) == d
        assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1
        diag = [d[i][i] for i in range(min(len(a), len(a[0])))]
        assert all(d[i][j] == 0 for i in range(len(a))
                   for j in range(len(a[0])) if i != j)
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert (y == 0) if x == 0 else (y % x == 0)


def test_reduce_mod_lattice():
    assert reduce_mod_lattice((Fraction(7, 4), Fraction(-1, 4))) == \
        (Fraction(3, 4), Fraction(3, 4))
    assert reduce_mod_lattice((Fraction(2), Fraction(0))) == (0, 0)


def test_change_basis(lat3):
    new, t = change_basis(lat3, [(1, -1, 0), (1, -1, 1), (-6, 7, -3)])
    assert new.gram == ((0, 1, 0), (1, 0, 0), (0, 0, -20))
    assert abs(det_int(t)) == 1
    with pytest.raises(NotABasis):
        change_basis(lat3, [(1, 0, 0), (2, 0, 0), (0, 0, 1)])
    with pytest.raises(NotABasis, match="sublattice"):
        change_basis(lat3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.mark.parametrize("gram, basis", [
    # of determinant 1, but (1/2, 0) is not in the lattice
    (((8, 2), (2, 4)), [(Fraction(1, 2), 0), (0, 2)]),
    # of determinant -1/2, which det_int would floor to 0 ("not of full rank")
    (GRAM3, [(Fraction(1, 2), Fraction(1, 2), 0),
             (Fraction(1, 2), Fraction(-1, 2), 0), (0, 0, 1)]),
], ids=["rank 2", "rank 3"])
def test_change_basis_refuses_non_integer_vectors(gram, basis):
    with pytest.raises(NotABasis, match=r"^\(Fraction\(1, 2\), .* is not an "
                       "integer vector$"):
        change_basis(IntegerLattice(gram=gram), basis)


def test_coordinates_in_basis():
    # the quartic context stores the integer inverse of its (f,e,v) basis
    ctx = quartic.build_context()
    assert ctx.to_fev((0, 0, 1)) == (-1, 1, 0)
    assert ctx.to_fev((1, 0, 0)) == (4, 3, 1)


def test_solve_norm_system(lat3):
    sols = solve_norm_system(lat3, [((1, 0, 0), 1)], -2, 20)
    assert sols == [(0, 0, 1), (0, 1, 0)]
    with pytest.raises(LatticeError):
        solve_norm_system(lat3, [], -2, 0)


def literal_box_scan(gram, constraints, norm, box):
    # every point of the box, each pairing and the norm as a double sum
    n = len(gram)

    def pair(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))

    return [x for x in product(range(-box, box + 1), repeat=n)
            if any(x) and all(pair(x, v) == c for v, c in constraints)
            and pair(x, x) == norm]


def _draw_norm_system(data, long_lines=False):
    """A random even lattice of rank 1-4, a box, a point in it, and 0-2
    constraints, which pass through the point when from_point is drawn.

    With long_lines: rank 1-3 and a box up to 30 (rank <= 2) or 8 (rank 3),
    so the walk runs long lines, and a kind of line.  "isotropic" zeroes
    the last diagonal entry and the last entry of every constraint row, so
    the walked direction d = s e_q has (d, d) = 0 and each line's equation
    is linear; "wide" pins the first constraint with a row entry of size 2
    or 3, so the pin's pairing entry s = det(G) r_p has |s| > 1."""
    n = data.draw(st.integers(1, 3 if long_lines else 4), label="rank")
    kind = data.draw(st.sampled_from(("any", "isotropic", "wide")
                                     if long_lines and n >= 2 else ("any",)),
                     label="kind")
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        # zero diagonal entries make the norm linear or constant on a line
        gram[i][i] = 2 * data.draw(st.integers(-2, 2))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = data.draw(st.integers(-3, 3))
    if kind == "isotropic":
        gram[n - 1][n - 1] = 0
    assume(det_int(gram) != 0)
    lat = IntegerLattice(gram=gram)
    largest = (30 if n <= 2 else 8) if long_lines else 5
    box = data.draw(st.integers(1, largest), label="box")
    point = data.draw(st.tuples(*[st.integers(-box, box)] * n), label="point")
    from_point = data.draw(st.booleans(), label="from_point")
    constraints = []
    for k in range(data.draw(st.integers(int(kind == "wide"), 2),
                             label="constraints")):
        # v = adj(G) r pairs as (x, v) = det(G) r.x, so the first nonzero
        # entry of r is the coordinate the constraint pins, at any index
        pin = data.draw(st.integers(0, n - (2 if kind == "isotropic" else 1)))
        lead = (st.sampled_from((-3, -2, 2, 3)) if kind == "wide" and k == 0
                else st.integers(-2, 2).filter(bool))
        row = [0] * pin + [data.draw(lead)] + \
            data.draw(st.lists(st.integers(-2, 2), min_size=n - pin - 1,
                               max_size=n - pin - 1))
        if kind == "isotropic":
            row[n - 1] = 0
        v = tuple(sum(a * r for a, r in zip(arow, row))
                  for arow in adjugate(gram))
        c = lat.inner(point, v) if from_point else data.draw(
            st.integers(-6, 6))
        constraints.append((v, c))
    return lat, constraints, box, point, from_point


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_solve_norm_system_against_the_literal_scan(data):
    lat, constraints, box, point, from_point = _draw_norm_system(data)
    norm = lat.norm(point) if from_point else 2 * data.draw(st.integers(-4, 4))
    assert solve_norm_system(lat, constraints, norm, box) == \
        literal_box_scan(lat.gram, constraints, norm, box)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_long_lines_against_the_literal_scan(data):
    # the finite differences of the discriminant run over up to 61 steps,
    # on isotropic lines (linear equations) and under pins with |s| > 1
    lat, constraints, box, point, from_point = _draw_norm_system(
        data, long_lines=True)
    norm = lat.norm(point) if from_point else 2 * data.draw(st.integers(-4, 4))
    assert solve_norm_system(lat, constraints, norm, box) == \
        literal_box_scan(lat.gram, constraints, norm, box)


@pytest.mark.parametrize("gram, constraints, norms, box, found", [
    # the hyperbolic plane: lines along e2 are isotropic, 2 x1 x2 = t
    (((0, 1), (1, 0)), [], (12, 0, -2), 30, 130),
    # (x, (0, 3)) = 3 x1 pins x1 with s = 3; d = 3 e2 is isotropic
    (((0, 1), (1, 0)), [((0, 3), 6)], (8, 0, 2), 30, 2),
    # (x, H) = 4 x1 + x2 + x3 pins x1 with s = 4; d = (-1, 0, 4), (d, d) = -36
    (GRAM3, [((1, 0, 0), 1)], (-2, 4), 8, 2),
    # (x, (0, 0, -2)) = -2 x2 pins x2 with s = -2; d = -2 e3 is isotropic
    (((2, 1, 0), (1, 0, 1), (0, 1, 0)), [((0, 0, -2), 4)], (0, 2, -6), 8, 12),
])
def test_isotropic_lines_and_wide_pins(gram, constraints, norms, box, found):
    lat = IntegerLattice(gram=gram)
    got = solve_norm_system(lat, constraints, norms, box)
    assert got == sorted(x for t in norms for x in literal_box_scan(
        lat.gram, constraints, t, box))
    assert len(got) == found


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_multi_norm_walk_against_one_walk_per_norm(data):
    # one walk for a tuple of norms finds what one walk per norm and the
    # literal box scan per norm find, merged in lexicographic order
    lat, constraints, box, point, from_point = _draw_norm_system(data)
    norms = tuple(data.draw(st.lists(st.integers(-8, 8), min_size=1,
                                     max_size=4), label="norms"))
    if from_point:
        norms += (lat.norm(point),)
    together = solve_norm_system(lat, constraints, norms, box)
    assert together == sorted(
        x for t in set(norms) for x in solve_norm_system(lat, constraints, t,
                                                         box))
    assert together == sorted(
        x for t in set(norms)
        for x in literal_box_scan(lat.gram, constraints, t, box))


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_matrix_kernels_against_index_loops(data):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    entries = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                        st.fractions(max_denominator=7))

    def matrix(rows, cols):
        return tuple(tuple(data.draw(entries) for _ in range(cols))
                     for _ in range(rows))

    a, b, x = matrix(n, k), matrix(k, m), matrix(1, k)[0]
    assert mat_mul(a, b) == tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n))
    assert mat_vec(a, x) == tuple(sum(a[i][t] * x[t] for t in range(k))
                                  for i in range(n))


def test_solve_pairing_norm_complete(lat3):
    assert solve_pairing_norm(lat3, (1, 0, 0), 1, -2) == [(0, 0, 1), (0, 1, 0)]
    # agreement with the boxed route on a batch of random targets
    rng = random.Random(3)
    for _ in range(15):
        pairing = rng.randint(-6, 6)
        norm = 2 * rng.randint(-6, 3)
        complete = solve_pairing_norm(lat3, (1, 0, 0), pairing, norm)
        boxed = solve_norm_system(lat3, [((1, 0, 0), pairing)], norm, 40)
        inside = [x for x in complete if all(abs(c) <= 40 for c in x)]
        assert boxed == inside
    with pytest.raises(LatticeError):
        solve_pairing_norm(lat3, (0, 1, 0), 1, -2)  # negative-norm anchor


QUARTIC = IntegerLattice(gram=((4, 1, 1), (1, -2, 0), (1, 0, -2)))


@settings(deadline=None, max_examples=60)
@given(st.tuples(*[st.integers(-4, 4)] * 3).filter(
           lambda a: QUARTIC.norm(a) > 0),
       st.integers(-12, 12), st.integers(-5, 3))
def test_solve_pairing_norm_against_the_box_scan(anchor, pairing, half_norm):
    # the anchor's orthogonal complement is negative definite, so the
    # solutions are finite; inside the box both routes find the same ones
    box = 12
    complete = solve_pairing_norm(QUARTIC, anchor, pairing, 2 * half_norm)
    boxed = solve_norm_system(QUARTIC, [(anchor, pairing)], 2 * half_norm, box)
    assert all(QUARTIC.inner(x, anchor) == pairing
               and QUARTIC.norm(x) == 2 * half_norm for x in complete)
    assert len(set(complete)) == len(complete)
    assert sorted(boxed) == sorted(x for x in complete
                                   if max(map(abs, x)) <= box)


def test_solve_pairing_norm_rank2():
    lat = IntegerLattice(gram=((4, 24), (24, 4)))
    assert solve_pairing_norm(lat, (1, 0), 4, 4) == [(1, 0)]
    assert solve_pairing_norm(lat, (1, 0), 1, 4) == []


def test_lattice_points_rank1():
    # no kernel: the center solve is of the empty system, det () = 1
    lat = IntegerLattice(gram=((2,),))
    assert det_int(()) == 1
    assert lattice_points(lat, (1,), (2, 4, -2), 0) == [(-1,), (1,), (2,)]


def test_solve_pairing_norm_rank4():
    # an even lattice of signature (1, 3), det -11
    lat = IntegerLattice(gram=((2, 1, 0, 0), (1, -2, 1, 0), (0, 1, -2, 1),
                               (0, 0, 1, -2)))
    anchor = (3, 1, 1, 1)
    found = 0
    for pairing in range(-4, 5):
        for norm in (-6, -4, -2, 0, 2):
            complete = solve_pairing_norm(lat, anchor, pairing, norm)
            boxed = solve_norm_system(lat, [(anchor, pairing)], norm, 8)
            assert boxed == [x for x in complete if max(map(abs, x)) <= 8]
            found += len(complete)
    assert found > 0
    # U + U has signature (2, 2): the complement of (1, 1, 0, 0) is indefinite
    hyp2 = IntegerLattice(gram=((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1),
                                (0, 0, 1, 0)))
    with pytest.raises(LatticeError, match="negative definite"):
        solve_pairing_norm(hyp2, (1, 1, 0, 0), 1, -2)


def _fraction_lattice_points(lat, anchor, pairings, min_norm):
    """The oracle for lattice_points: the same Fincke-Pohst walk over
    Fractions, with the LDL^T pivots and the center as rationals."""
    anchor_norm = lat.norm(anchor)
    if anchor_norm <= 0:
        raise LatticeError("anchor must have positive norm")
    g, x1, kernel = form_basis(lat.pairing_row(anchor))
    k = len(kernel)
    # -K^T G K = R^T D R with R unit upper triangular; each pivot D_i is a
    # Schur complement of -K^T G K, positive iff that form is definite
    neg = [[-lat.inner(a, b) for b in kernel] for a in kernel]
    diag, r = [], [[0] * k for _ in range(k)]
    for i in range(k):
        diag.append(Fraction(neg[i][i]) - sum(diag[m] * r[m][i] ** 2
                                              for m in range(i)))
        if diag[i] <= 0:
            raise LatticeError("orthogonal complement is not negative definite")
        for j in range(i + 1, k):
            r[i][j] = (neg[i][j] - sum(diag[m] * r[m][i] * r[m][j]
                                       for m in range(i))) / diag[i]
    # the norm is maximal, p^2 / (anchor, anchor), at the t-center
    # adj(N) K^T G x1 / det N
    det = det_int(neg)
    center1 = [Fraction(c, det) for c in
               mat_vec(adjugate(neg), [lat.inner(b, x1) for b in kernel])]
    out = []
    for p in pairings:
        if p % g:
            continue
        s = p // g
        center = [s * c for c in center1]
        bound = Fraction(p * p, anchor_norm) - min_norm
        for t in _fraction_ellipsoid_points(diag, r, center, bound):
            x = tuple(s * x1[i] + sum(t[j] * kernel[j][i] for j in range(k))
                      for i in range(lat.rank))
            if any(x):
                out.append(x)
    out.sort()
    return out


def _fraction_ellipsoid_points(diag, r, center, bound):
    """Integer t with sum_i D_i (u_i + sum_{j>i} R_ij u_j)^2 <= bound, where
    u = t - center, choosing t from the last coordinate down."""
    k = len(diag)
    t = [0] * k

    def walk(i, rest):
        if i < 0:
            yield tuple(t)
            return
        z = center[i] - sum(r[i][j] * (t[j] - center[j])
                            for j in range(i + 1, k))
        # every admissible t_i has |t_i - z| <= sqrt(rest / D_i) < s + 1
        s = math.isqrt(math.floor(rest / diag[i]))
        for ti in range(math.floor(z) - s, math.ceil(z) + s + 1):
            left = rest - diag[i] * (ti - z) ** 2
            if left >= 0:
                t[i] = ti
                yield from walk(i - 1, left)

    if bound >= 0:
        yield from walk(k - 1, bound)


def _outcome(f, *args):
    """f's value, or the type and message of the LatticeError it raises."""
    try:
        return f(*args)
    except LatticeError as exc:
        return type(exc), str(exc)


@st.composite
def _even_lattices(draw, positive=None):
    """An even lattice of rank 1..3 with Gram U^T diag(2 e_i) U for a
    nonsingular integer U: of signature (1, n - 1) when positive is 1, and
    of any signature when positive is None."""
    n = draw(st.integers(1, 3))
    if positive is None:
        positive = draw(st.integers(0, n))
    diag = [2 * draw(st.integers(1, 2)) * (1 if i < positive else -1)
            for i in range(n)]
    u = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                      min_size=n, max_size=n).filter(det_int))
    gram = tuple(tuple(sum(u[m][i] * diag[m] * u[m][j] for m in range(n))
                       for j in range(n)) for i in range(n))
    return IntegerLattice(gram=gram)


def _pairings(data, lat, anchor):
    """A few multiples of the gcd of the anchor's pairing row, which are
    the pairings that occur, and one arbitrary integer."""
    g = math.gcd(*lat.pairing_row(anchor))
    return ([g * j for j in data.draw(st.lists(st.integers(-5, 5),
                                                min_size=1, max_size=3))]
            + data.draw(st.lists(st.integers(-12, 12), max_size=1)))


_MIN_NORMS = st.integers(-20, 6)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_lattice_points_against_the_fraction_walk(data):
    # signature (1, n - 1), a positive anchor: the same complete point set
    lat = data.draw(_even_lattices(positive=1))
    anchor = data.draw(st.tuples(*[st.integers(-3, 3)] * lat.rank).filter(
        lambda a: lat.norm(a) > 0))
    pairings = _pairings(data, lat, anchor)
    min_norm = data.draw(_MIN_NORMS)
    got = lattice_points(lat, anchor, pairings, min_norm)
    assert got == _fraction_lattice_points(lat, anchor, pairings, min_norm)
    assert all(lat.inner(x, anchor) in pairings and lat.norm(x) >= min_norm
               and any(x) for x in got)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_lattice_points_errors_against_the_fraction_walk(data):
    # any signature and any anchor: the same points or the same error
    lat = data.draw(_even_lattices())
    anchor = data.draw(st.tuples(*[st.integers(-3, 3)] * lat.rank))
    args = lat, anchor, _pairings(data, lat, anchor), data.draw(_MIN_NORMS)
    assert _outcome(lattice_points, *args) == \
        _outcome(_fraction_lattice_points, *args)


@pytest.mark.parametrize("gram, anchor, message", [
    (((2, 0), (0, -2)), (0, 1), "anchor must have positive norm"),
    (((-2,),), (1,), "anchor must have positive norm"),
    (((2, 0, 0), (0, 2, 0), (0, 0, -2)), (1, 0, 0), "not negative definite"),
    (((0, 1), (1, 0)), (0, 0), "anchor must have positive norm"),
    (((2, 0), (0, 4)), (1, 1), "not negative definite"),
])
def test_lattice_points_errors(gram, anchor, message):
    lat = IntegerLattice(gram=gram)
    for enumerate_points in (lattice_points, _fraction_lattice_points):
        with pytest.raises(LatticeError, match=message):
            enumerate_points(lat, anchor, (1, 2), 0)


def test_zero_polynomial_on_the_grid():
    assert is_zero_polynomial(lambda x, y: (x + y) ** 2 - x * x - 2 * x * y
                              - y * y, (2, 2))
    assert not is_zero_polynomial(lambda x: x * x - 1, (2,))


@settings(deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=3),
       st.integers(-5, 5).filter(bool))
def test_zero_polynomial_rejects_a_smaller_grid(degrees, c):
    # c prod_i x_i (x_i - 1) ... (x_i - d_i + 1) has degree d_i in x_i and
    # vanishes wherever some x_i < d_i, so only the full grid sees it
    def f(*x):
        return c * math.prod(x[i] - j for i, d in enumerate(degrees)
                             for j in range(d))
    assert not is_zero_polynomial(f, degrees)
    if any(degrees):
        assert is_zero_polynomial(f, [max(d - 1, 0) for d in degrees])
