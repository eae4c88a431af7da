import pytest
from hypothesis import given, settings, strategies as st

from k3cert import pell, quartic
from k3cert.isometry import (
    Isometry,
    NotAnIsometry,
    char_poly,
    compose,
    discriminant_action,
    identity,
    make_isometry,
    mw_translation,
    order_of,
    reflection_in,
)
from k3cert.lattice import (
    IntegerLattice, LatticeError, discriminant_group, mat_inverse_frac)

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
        make_isometry(hlm, ((1, 0, 0), (0, 1, 0), (0, 1, 1)))
    with pytest.raises(NotAnIsometry):
        make_isometry(hlm, ((1, 0), (0, 1)))


def test_identity_and_inverse(hlm):
    e = identity(hlm)
    assert e.is_identity() and e.det() == 1
    swap = make_isometry(hlm, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
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
            make_isometry(fev, ((1, 0, 0), (0, 1, 0), (0, 0, -1))),
            make_isometry(fev, ((0, 1, 0), (1, 0, 0), (0, 0, 1))))
    g = identity(fev)
    for i in word:
        g = compose(g, gens[i])
    for h in (g, g.inverse(), g.power(k)):
        assert Isometry(fev, h.matrix) == h


def _quartic_generators():
    """The three wall reflections of the quartic chamber and the L <-> M
    swap, on the (H, L, M) lattice."""
    ch = quartic.build_context().chamber
    swap = make_isometry(ch.lattice, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    return [*ch.reflections, swap]


def _pell_generators(ell):
    """The Pell isometries of [[4, 4 ell], [4 ell, 4]] with entries up to
    4 ell^2 and the reflections in both basis vectors."""
    ctx = pell.build_context(ell)
    return pell._raw_isometries(ctx, 4 * ell * ell) + [
        reflection_in(ctx.lattice, w) for w in ((1, 0), (0, 1))]


@settings(deadline=None, max_examples=60)
@given(st.one_of(st.just(None), st.integers(6, 40)), st.data())
def test_integer_inverse_against_fraction_elimination(ell, data):
    gens = _quartic_generators() if ell is None else _pell_generators(ell)
    word = data.draw(st.lists(st.sampled_from(gens), max_size=6))
    g = identity(gens[0].lattice)
    for h in word:
        g = compose(g, h)
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


def test_compose_order(fev):
    # compose(p, q) applies q first: matrices multiply as p @ q
    t = mw_translation(fev, 1)
    inv = make_isometry(fev, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
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


def test_char_poly(fev):
    t = mw_translation(fev, 1)
    # unipotent: (t - 1)^3 = t^3 - 3t^2 + 3t - 1, low-degree first
    assert char_poly(t.matrix) == (-1, 3, -3, 1)


def test_order_finite(hlm, fev):
    r = reflection_in(hlm, (-6, 7, -3))
    assert order_of(r) == (2, "iterated")
    iota3 = make_isometry(fev, ((1, 10, -20), (0, 1, 0), (0, 1, -1)))
    assert order_of(iota3) == (2, "iterated")
    assert order_of(identity(hlm)) == (1, "iterated")
    # the iteration runs to the lcm of the cyclotomic orders, here 6
    a2 = IntegerLattice(gram=((-2, 1), (1, -2)))
    assert order_of(make_isometry(a2, ((1, -1), (1, 0)))) == (6, "iterated")
    assert order_of(make_isometry(a2, ((0, -1), (1, -1)))) == (3, "iterated")


def test_order_infinite_unipotent(fev):
    n, cert = order_of(mw_translation(fev, 1))
    assert n == "infinite" and cert == "nonsemisimple"


def test_order_infinite_noncyclotomic():
    lat = IntegerLattice(gram=((4, 24), (24, 4)))
    r = make_isometry(lat, ((0, -1), (1, 12)))
    n, cert = order_of(r)
    assert n == "infinite" and cert == "noncyclotomic"


def test_order_rank_limit():
    # the cyclotomic table is complete for rank <= 3 only; in rank 8 a
    # characteristic polynomial Phi_5^2 would be certified "noncyclotomic"
    a4 = IntegerLattice(gram=((-2, 1, 0, 0), (1, -2, 1, 0), (0, 1, -2, 1),
                              (0, 0, 1, -2)))
    with pytest.raises(LatticeError, match="rank <= 3"):
        order_of(identity(a4))


def test_discriminant_action_kinds(hlm, fev):
    disc_f = discriminant_group(fev)
    assert discriminant_action(mw_translation(fev, 2), disc_f) == "identity"
    neg = make_isometry(fev, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    assert discriminant_action(neg, disc_f) == "negation"
    disc_h = discriminant_group(hlm)
    swap = make_isometry(hlm, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    assert discriminant_action(swap, disc_h) == "other"


def test_to_json(fev):
    obj = mw_translation(fev, 1).to_json(basis_tag="fev")
    assert obj["basis"] == "fev"
    assert obj["matrix"][0] == [1, 10, 20]
