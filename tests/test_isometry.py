from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from k3cert import pell, quartic
from k3cert.isometry import (
    Isometry,
    NotAnIsometry,
    compose,
    discriminant_action,
    identity,
    mw_translation,
    order_of,
    reflection_in,
)
from k3cert.lattice import IntegerLattice, LatticeError, discriminant_group

GRAM_HLM = ((4, 1, 1), (1, -2, 0), (1, 0, -2))
GRAM_FEV = ((0, 1, 0), (1, 0, 0), (0, 0, -20))


@pytest.fixture
def hlm():
    return IntegerLattice(gram=GRAM_HLM, labels=("H", "L", "M"))


@pytest.fixture
def fev():
    return IntegerLattice(gram=GRAM_FEV, labels=("f", "e", "v"))


def test_rejects_non_isometry(hlm):
    with pytest.raises(NotAnIsometry, match=r"gram entry"):
        Isometry(hlm, ((1, 0, 0), (0, 1, 0), (0, 1, 1)))
    with pytest.raises(NotAnIsometry):
        Isometry(hlm, ((1, 0), (0, 1)))


def test_identity_and_inverse(hlm):
    e = identity(hlm)
    assert e.is_identity() and e.det() == 1
    swap = Isometry(hlm, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    assert swap.det() == -1
    assert compose(swap, swap).is_identity()
    assert swap.inverse().matrix == swap.matrix


def test_apply_and_power(fev):
    t = mw_translation(fev, 1)
    assert t.apply((0, 1, 0)) == (10, 1, 1)
    assert t.power(3).matrix == mw_translation(fev, 3).matrix
    assert t.power(-2).matrix == mw_translation(fev, -2).matrix
    assert t.power(0).is_identity()


@settings(deadline=None)
@given(st.lists(st.integers(0, 3), max_size=6), st.integers(-4, 4))
def test_derived_isometries_pass_the_checked_constructor(word, k):
    # compose, inverse, power and identity skip the M^T G M = G and
    # determinant checks; the checked constructor accepts all they build
    fev = IntegerLattice(gram=GRAM_FEV, labels=("f", "e", "v"))
    gens = (mw_translation(fev, 1), mw_translation(fev, -2),
            Isometry(fev, ((1, 0, 0), (0, 1, 0), (0, 0, -1))),
            Isometry(fev, ((0, 1, 0), (1, 0, 0), (0, 0, 1))))
    g = identity(fev)
    for i in word:
        g = compose(g, gens[i])
    for h in (g, g.inverse(), g.power(k)):
        assert Isometry(fev, h.matrix) == h


def mat_inverse_frac(m):
    """Inverse of a square integer matrix by Gauss-Jordan elimination over
    the rationals, entries as Fractions: the oracle for the integer
    det(M) adj(M) inverse."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)]
         + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise LatticeError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def _quartic_generators():
    """The three wall reflections of the quartic chamber and the L <-> M
    swap, on the (H, L, M) lattice."""
    ch = quartic.build_context().chamber
    swap = Isometry(ch.lattice, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    return [*ch.reflections, swap]


def _product(lat, word):
    """The product of a word of isometries of lat; the empty word is the
    identity."""
    g = identity(lat)
    for h in word:
        g = compose(g, h)
    return g


def _pell_isometries(ell):
    """The Pell isometries of [[4, 4 ell], [4 ell, 4]] with entries up to
    4 ell^2, each through the checked constructor."""
    ctx = pell.build_context(ell)
    return [Isometry(ctx.lattice, m)
            for m in pell._raw_isometries(ctx, 4 * ell * ell)]


def _pell_generators(ell):
    """The Pell isometries and the reflections in both basis vectors."""
    lat = pell.build_context(ell).lattice
    return _pell_isometries(ell) + [reflection_in(lat, w)
                                    for w in ((1, 0), (0, 1))]


@settings(deadline=None, max_examples=60)
@given(st.one_of(st.just(None), st.integers(6, 40)), st.data())
def test_integer_inverse_against_fraction_elimination(ell, data):
    gens = _quartic_generators() if ell is None else _pell_generators(ell)
    word = data.draw(st.lists(st.sampled_from(gens), max_size=6))
    g = _product(gens[0].lattice, word)
    inv = g.inverse()
    assert inv.matrix == mat_inverse_frac(g.matrix)
    assert compose(g, inv).is_identity() and compose(inv, g).is_identity()
    k = data.draw(st.integers(1, 4))
    assert compose(g.power(-k), g.power(k)).is_identity()
    # a matrix of determinant other than +-1 has no integer inverse
    doubled = Isometry._trusted(g.lattice,
                                tuple(tuple(2 * c for c in row)
                                      for row in g.matrix))
    with pytest.raises(NotAnIsometry):
        doubled.inverse()


@pytest.mark.parametrize("matrix", [
    ((Fraction(3, 2), 0, 0), (0, Fraction(19, 10), 0), (0, 0, 1)),
    ((Fraction(3, 2), 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1.9, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1.0, 0), (0, 0, 1)),
    ((Fraction(1), 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, "1", 0), (0, 0, 1)),
])
def test_rejects_non_integer_entries(hlm, matrix):
    # entries are never truncated: int(3/2) and int(1.9) would read as the
    # identity, so only exact ints pass, whatever value they stand for
    with pytest.raises(NotAnIsometry, match="integers"):
        Isometry(hlm, matrix)


def test_rejects_a_shear_of_the_hyperbolic_plane():
    # det 1 and (c_1, c_1), (c_1, c_2) preserved: only the last diagonal
    # entry of M^T G M, (c_2, c_2) = 2 != 0, tells it from an isometry
    u = IntegerLattice(gram=((0, 1), (1, 0)))
    with pytest.raises(NotAnIsometry, match=r"entry \(1,1\).*2 != 0"):
        Isometry(u, ((1, 1), (0, 1)))


def _preserves_gram_literally(gram, m):
    """M^T G M = G as the triple sums sum_kl m_ki g_kl m_lj, and |det M| = 1
    from sympy: the oracle for the checked constructor."""
    n = len(gram)
    return all(sum(m[k][i] * gram[k][l] * m[l][j]
                   for k in range(n) for l in range(n)) == gram[i][j]
               for i in range(n) for j in range(n)) \
        and abs(sympy.Matrix(m).det()) == 1


def _isometry_words():
    """Products of known isometries of the (H, L, M), (f, e, v), Pell l = 7
    and hyperbolic-plane lattices, as (gram, matrix) pairs.  On the
    hyperbolic plane the shear ((1, 1), (0, 1)), one perturbation away from
    the identity, changes only the entry (2, 2) of M^T G M."""
    fev = IntegerLattice(gram=GRAM_FEV, labels=("f", "e", "v"))
    u = IntegerLattice(gram=((0, 1), (1, 0)))
    gen_sets = [
        _quartic_generators(),
        [mw_translation(fev, 1), mw_translation(fev, -2),
         Isometry(fev, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))],
        _pell_generators(7),
        [Isometry(u, ((0, 1), (1, 0))), Isometry(u, ((-1, 0), (0, -1)))],
    ]
    return st.sampled_from(gen_sets).flatmap(
        lambda gens: st.lists(st.sampled_from(gens), max_size=4).map(
            lambda word: (gens[0].lattice.gram,
                          _product(gens[0].lattice, word).matrix)))


def _random_matrices():
    """Small integer matrices of the right size for the same lattices."""
    grams = (GRAM_HLM, GRAM_FEV, ((4, 28), (28, 4)), ((-2, 1), (1, -2)))
    return st.sampled_from(grams).flatmap(lambda gram: st.tuples(
        st.just(gram),
        st.lists(st.lists(st.integers(-2, 2), min_size=len(gram),
                          max_size=len(gram)),
                 min_size=len(gram), max_size=len(gram))))


@settings(deadline=None, max_examples=200)
@given(st.one_of(_isometry_words(), _random_matrices()), st.data())
def test_constructor_against_the_literal_check(pair, data):
    gram, m = pair
    m = [list(row) for row in m]
    if data.draw(st.booleans(), label="perturb"):
        i = data.draw(st.integers(0, len(m) - 1))
        j = data.draw(st.integers(0, len(m) - 1))
        m[i][j] += data.draw(st.sampled_from((-1, 1)))
    lat = IntegerLattice(gram=gram)
    want = _preserves_gram_literally(gram, m)
    try:
        g = Isometry(lat, m)
    except NotAnIsometry:
        assert not want
    else:
        assert want and g.matrix == tuple(map(tuple, m))


def test_compose_order(fev):
    # compose(p, q) applies q first: matrices multiply as p @ q
    t = mw_translation(fev, 1)
    inv = Isometry(fev, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    pq = compose(t, inv)
    x = (0, 0, 1)
    assert pq.apply(x) == t.apply(inv.apply(x))


def test_compose_lattice_mismatch(hlm, fev):
    with pytest.raises(LatticeError):
        compose(identity(hlm), identity(fev))


def test_reflection(hlm):
    r = reflection_in(hlm, (-6, 7, -3))
    v = (-6, 7, -3)
    assert r.apply(v) == (6, -7, 3)
    assert compose(r, r).is_identity()
    assert r.det() == -1
    with pytest.raises(LatticeError, match="isotropic"):
        reflection_in(hlm, (1, -1, 0))
    with pytest.raises(LatticeError, match="not integral"):
        reflection_in(hlm, (1, -2, 0))  # norm -8, non-integral reflection


def test_order_finite(hlm, fev):
    r = reflection_in(hlm, (-6, 7, -3))
    assert order_of(r) == (2, "iterated")
    iota3 = Isometry(fev, ((1, 10, -20), (0, 1, 0), (0, 1, -1)))
    assert order_of(iota3) == (2, "iterated")
    assert order_of(identity(hlm)) == (1, "iterated")
    a2 = IntegerLattice(gram=((-2, 1), (1, -2)))
    assert order_of(Isometry(a2, ((1, -1), (1, 0)))) == (6, "iterated")
    assert order_of(Isometry(a2, ((0, -1), (1, -1)))) == (3, "iterated")


def test_order_infinite_unipotent(fev):
    n, cert = order_of(mw_translation(fev, 1))
    assert n == "infinite" and cert == "crystallographic"


def test_order_infinite_noncyclotomic():
    lat = IntegerLattice(gram=((4, 24), (24, 4)))
    r = Isometry(lat, ((0, -1), (1, 12)))
    n, cert = order_of(r)
    assert n == "infinite" and cert == "crystallographic"


def test_order_rank_limit():
    # the crystallographic restriction to orders dividing 12 holds for
    # rank <= 3 only; in rank 4 an isometry can have order 5
    a4 = IntegerLattice(gram=((-2, 1, 0, 0), (1, -2, 1, 0), (0, 1, -2, 1),
                              (0, 0, 1, -2)))
    with pytest.raises(LatticeError, match="rank <= 3"):
        order_of(identity(a4))


def _sympy_order(m):
    """The order of m from sympy alone: m has finite order iff every
    irreducible factor of its characteristic polynomial is cyclotomic and m
    is diagonalizable, and then the order is the lcm of the factors'
    indices."""
    t = sympy.Symbol("t")
    a = sympy.Matrix(m)
    _, factors = sympy.Poly(a.charpoly(t).as_expr(), t).factor_list()
    if not all(f.is_cyclotomic for f, _ in factors) \
            or not a.is_diagonalizable():
        return "infinite"
    return lcm(*(next(k for k in range(1, 100)
                      if sympy.cyclotomic_poly(k, t, polys=True) == f)
                 for f, _ in factors))


def _signed_permutations():
    lat = IntegerLattice(gram=((-2, 0, 0), (0, -2, 0), (0, 0, -2)))
    return st.builds(
        lambda perm, signs: Isometry(lat, [[signs[i] * int(j == perm[i])
                                            for j in range(3)]
                                           for i in range(3)]),
        st.permutations(range(3)), st.tuples(*[st.sampled_from((1, -1))] * 3))


def _a2_rotations():
    a2 = IntegerLattice(gram=((-2, 1), (1, -2)))
    return st.integers(0, 5).map(
        lambda k: Isometry(a2, ((1, -1), (1, 0))).power(k))


@settings(deadline=None, max_examples=80)
@given(st.one_of(
    st.lists(st.sampled_from(_quartic_generators()), max_size=5).map(
        lambda word: _product(quartic.build_context().lattice, word)),
    _signed_permutations(),
    _a2_rotations(),
    st.integers(-5, 5).map(lambda n: mw_translation(
        IntegerLattice(gram=GRAM_FEV, labels=("f", "e", "v")), n)),
    st.integers(6, 12).flatmap(
        lambda ell: st.sampled_from(_pell_isometries(ell)))))
def test_order_against_sympy(g):
    want = _sympy_order(g.matrix)
    route = "crystallographic" if want == "infinite" else "iterated"
    assert order_of(g) == (want, route)


def test_discriminant_action_kinds(hlm, fev):
    disc_f = discriminant_group(fev)
    assert discriminant_action(mw_translation(fev, 2), disc_f) == "identity"
    neg = Isometry(fev, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    assert discriminant_action(neg, disc_f) == "negation"
    disc_h = discriminant_group(hlm)
    swap = Isometry(hlm, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    assert discriminant_action(swap, disc_h) == "other"
