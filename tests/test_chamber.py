import inspect
from fractions import Fraction
from itertools import product
from math import isqrt
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from k3cert.chamber import (
    Chamber,
    ChamberError,
    in_chamber,
    in_positive_cone,
    isotropic_rays_in_wall,
    orbit_of_anchor,
    pingpong_certify,
    reduce_to_chamber,
)
from k3cert.lattice import (DimensionMismatch, IntegerLattice, det_int,
                            form_basis)
from k3cert.quadfield import QuadExt, is_square, pair_sign

GRAM = ((4, 1, 1), (1, -2, 0), (1, 0, -2))
H = (1, 0, 0)
V = (-6, 7, -3)
VP = (-6, -3, 7)
W3 = (4, -3, -3)
RAYS = (
    (Fraction(1), Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1), Fraction(-1), Fraction(1, 2)),
    (Fraction(1), Fraction(1, 2), Fraction(-1)),
    (Fraction(1), Fraction(-1), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(-1)),
)


@pytest.fixture(scope="module")
def lat():
    return IntegerLattice(gram=GRAM)


@pytest.fixture(scope="module")
def pentagon(lat):
    return Chamber(lattice=lat, anchor=H, walls=(V, VP, W3), extra_rays=RAYS)


def test_positive_cone(lat):
    assert in_positive_cone(lat, H, (2, 1, 1))
    assert not in_positive_cone(lat, H, (0, 1, 0))
    assert not in_positive_cone(lat, H, (-1, 0, 0))
    with pytest.raises(ChamberError):
        in_positive_cone(lat, (0, 1, 0), H)


def test_chamber_construction(lat, pentagon):
    assert len(pentagon.wall_forms) == 3
    # all wall forms positive on the anchor by orientation
    for i in range(3):
        assert pentagon.wall_value(i, H) > 0
    assert len(pentagon.face_forms) == 5
    with pytest.raises(ChamberError):
        Chamber(lattice=lat, anchor=(0, 1, 0), walls=(V,))
    # walls of positive norm (H) or isotropic ((1, -1, 0)) are not reflective
    for wall in (H, (1, -1, 0)):
        with pytest.raises(ChamberError, match=r"\(w, w\) >= 0"):
            Chamber(lattice=lat, anchor=H, walls=(V, wall))


@pytest.mark.parametrize("derived", ["wall_forms", "face_forms",
                                     "reflections", "wall_table"])
def test_chamber_refuses_derived_fields(lat, derived):
    # the derived fields are computed from the four arguments, never given
    assert list(inspect.signature(Chamber).parameters) == [
        "lattice", "anchor", "walls", "extra_rays"]
    with pytest.raises(TypeError, match=derived):
        Chamber(lattice=lat, anchor=H, walls=(V,), **{derived: ()})


@pytest.mark.parametrize("gram, anchor, walls", [
    (((2, 1), (1, -2)), (1, 0), ((0, 1),)),
    # the pentagon lattice plus an orthogonal <-2>
    (tuple(row + (0,) for row in GRAM) + ((0, 0, 0, -2),), H + (0,),
     tuple(w + (0,) for w in (V, VP, W3)))], ids=["rank 2", "rank 4"])
def test_chamber_refuses_rank_other_than_3(gram, anchor, walls):
    lat = IntegerLattice(gram=gram)
    with pytest.raises(ChamberError,
                       match="needs a rank-3 lattice, not rank %d" % len(gram)):
        Chamber(lattice=lat, anchor=anchor, walls=walls)


def test_membership(pentagon):
    assert in_chamber(pentagon, H)
    assert in_chamber(pentagon, (1, -1, 0))    # boundary ray
    assert in_chamber(pentagon, (2, 1, 1))     # vertex ray, cleared
    assert not in_chamber(pentagon, (1, 1, 1))
    assert not in_chamber(pentagon, (3, 3, 1))
    # the contracted curve class satisfies every wall but not the faces
    assert all(pentagon.wall_value(i, (0, 0, 1)) >= 0 for i in range(3))
    assert not in_chamber(pentagon, (0, 0, 1))


def test_wall_value_quadext(pentagon):
    ray = (QuadExt(1, 0, 5), QuadExt(0, 0, 5), QuadExt(0, 0, 5))
    assert pentagon.wall_value(0, ray) == pentagon.wall_value(0, H)


def test_reduce_roundtrip(pentagon):
    x = pentagon.reflections[0].apply(pentagon.reflections[2].apply(H))
    trace = reduce_to_chamber(pentagon, x)
    assert trace.result == H
    assert trace.word and all(1 <= w <= 3 for w in trace.word)
    assert trace.unreduce(pentagon) == x


@settings(deadline=None)
@given(st.tuples(*[st.integers(-40, 40)] * 3).filter(any))
def test_unreduce_inverts_reduce(pentagon, x):
    lat = pentagon.lattice
    try:
        trace = reduce_to_chamber(pentagon, x)
    except ChamberError:
        # the contract is the closed positive cone
        assert lat.norm(x) < 0 or lat.inner(x, H) <= 0
        return
    assert trace.unreduce(pentagon) == x
    assert all(pentagon.wall_value(i, trace.result) >= 0 for i in range(3))


def test_reduce_already_reduced(pentagon):
    trace = reduce_to_chamber(pentagon, (2, -1, -1))
    assert trace.word == () and trace.result == (2, -1, -1)


def test_reduce_zero_rejected(pentagon):
    with pytest.raises(ChamberError):
        reduce_to_chamber(pentagon, (0, 0, 0))


@settings(deadline=None)
@given(st.tuples(*[st.integers(-8, 8)] * 3).filter(any))
def test_reduce_step_bound_on_the_cone(pentagon, x):
    # on the closed positive cone each reflection lowers (x, H) by a positive
    # multiple of some |(w, H)| in {20, 20, 10}; off it nothing is reflected
    lat = pentagon.lattice
    xh = lat.inner(x, H)
    if lat.norm(x) >= 0 and xh > 0:
        trace = reduce_to_chamber(pentagon, x)
        assert len(trace.word) <= xh // 10
        assert trace.unreduce(pentagon) == x
        assert lat.inner(trace.result, H) > 0
    else:
        # every reflection step divides by (w, w)
        with patch("k3cert.chamber.divmod", create=True,
                   side_effect=AssertionError("reflected")), \
                pytest.raises(ChamberError, match="closed positive cone"):
            reduce_to_chamber(pentagon, x)


def _literal_reduction(chamber, x):
    """The lowest-index strictly violated wall, reflected through
    Isometry.apply, until no wall is violated: (word, result)."""
    word = []
    while True:
        viol = next((i for i in range(len(chamber.walls))
                     if chamber.wall_value(i, x) < 0), None)
        if viol is None:
            return tuple(word), tuple(x)
        x = chamber.reflections[viol].apply(x)
        word.append(viol + 1)


def _cone_box(lat):
    """The classes of the closed positive cone in [-8, 8]^3."""
    return [x for x in product(range(-8, 9), repeat=3)
            if lat.norm(x) >= 0 and lat.inner(x, H) > 0]


def test_reduce_against_the_literal_walk(pentagon):
    cone = _cone_box(pentagon.lattice)
    assert len(cone) > 500
    # the box lies within one reflection of the chamber, so its images under
    # the 24 reduced words of length 4 are added for longer walks
    far = []
    for word in product(range(3), repeat=4):
        if all(a != b for a, b in zip(word, word[1:])):
            for y in cone[::25]:
                for i in word:
                    y = pentagon.reflections[i].apply(y)
                far.append(y)
    steps = []
    for x in cone + far:
        trace = reduce_to_chamber(pentagon, x)
        assert (trace.word, trace.result) == _literal_reduction(pentagon, x)
        steps.append(len(trace.word))
    assert max(steps) >= 4


def _tie_chamber(lat):
    """The pentagon's wall caps are disjoint (ping-pong), so at most one
    wall is violated at a time; the caps of L and M, both of norm -2,
    overlap at (1, 1, 1), where the lowest index must win."""
    return Chamber(lattice=lat, anchor=H, walls=((0, 1, 0), (0, 0, 1), V))


def test_reduce_tie_break_against_the_literal_walk(lat):
    ch = _tie_chamber(lat)
    cone = _cone_box(lat)
    ties = [x for x in cone
            if sum(ch.wall_value(i, x) < 0 for i in range(3)) > 1]
    assert (1, 1, 1) in ties
    for x in cone:
        trace = reduce_to_chamber(ch, x)
        assert (trace.word, trace.result) == _literal_reduction(ch, x)
    assert reduce_to_chamber(ch, (1, 1, 1)).word[0] == 1


@settings(deadline=None, max_examples=300)
@given(st.booleans(), st.booleans(),
       st.tuples(st.integers(-30, 30), st.integers(-30, 30)), st.data(),
       st.integers(0, 2), st.integers(0, 30),
       st.lists(st.integers(1, 2), min_size=30, max_size=30))
def test_scalar_walk_against_the_literal_walk(lat, pentagon, tie, on_cone,
                                              tail, data, first, length,
                                              steps):
    # a class of [-30, 30]^3, on the closed positive cone or off it, pushed
    # by a reduced word of length up to 30 (each wall differs from the one
    # before): the reflections keep the cone, the negative cone and the
    # classes of negative norm, so either way the coordinates grow far
    # beyond the box.  The first coordinate is drawn among those that put
    # the class on the chosen side.
    ch = _tie_chamber(lat) if tie else pentagon
    heads = [h for h in range(-30, 31)
             if (lat.norm((h,) + tail) >= 0
                 and lat.inner((h,) + tail, H) > 0) == on_cone]
    assume(heads)
    x = (data.draw(st.sampled_from(heads)),) + tail
    i = first
    for d in steps[:length]:
        x = ch.reflections[i].apply(x)
        i = (i + d) % 3
    if on_cone:
        trace = reduce_to_chamber(ch, x)
        assert (trace.word, trace.result) == _literal_reduction(ch, x)
        assert trace.unreduce(ch) == x
    else:
        # the error text, with the pairings from the lattice's own inner
        with pytest.raises(ChamberError) as exc:
            reduce_to_chamber(ch, x)
        assert str(exc.value) == (
            "%s is off the closed positive cone: (x, x) = %s, "
            "(x, anchor) = %s" % (x, lat.norm(x), lat.inner(x, H)))


def test_rank_3_takes_the_scalar_walk(pentagon):
    # the walk never calls the lattice's pairing
    x = pentagon.reflections[0].apply(pentagon.reflections[2].apply(H))
    with patch.object(IntegerLattice, "inner",
                      side_effect=AssertionError("lattice pairing")):
        trace = reduce_to_chamber(pentagon, x)
    assert (trace.word, trace.result) == _literal_reduction(pentagon, x)
    assert trace.word == (1, 3) and trace.result == H
    # a class of the wrong length still meets the lattice's own check
    with pytest.raises(DimensionMismatch):
        reduce_to_chamber(pentagon, (1, 0, 0, 0))


@pytest.mark.parametrize("n", [1, 2, 10, 57, 100, 999, 1000])
def test_cusp_powers_reduce_in_2n_steps(pentagon, n):
    # walls 1 and 3 meet at the isotropic class f = H - L, walls 2 and 3 at
    # f' = H - M, so P = r1 r3 and P' = r2 r3 are parabolic: P^n(H) grows
    # quadratically in n and the walk undoes it one reflection at a time,
    # in exactly 2n steps, the word of P^n read backwards
    r1, r2, r3 = pentagon.reflections
    for first, last in ((r1, 1), (r2, 2)):
        x = H
        for _ in range(n):
            x = first.apply(r3.apply(x))
        trace = reduce_to_chamber(pentagon, x)
        assert trace.word == (last, 3) * n
        assert trace.result == H
        assert trace.unreduce(pentagon) == x
        if n == 1000 and last == 1:
            assert x == (29998001, -30001000, 9000)
        if n == 1000 and last == 2:
            assert x == (29998001, 9000, -30001000)


def test_reduce_rejects_a_non_integral_step(pentagon):
    # a half-integer class of the cone with 2(x, w)/(w, w) = 1/2 for the
    # third wall: off the integer contract, so no step is taken
    x = (Fraction(5, 2), Fraction(-2), Fraction(-1))
    with pytest.raises(ChamberError, match="not an integer class"):
        reduce_to_chamber(pentagon, x)


def test_reduce_rejects_non_int_coordinates_before_any_step(pentagon):
    # (13/2, -7, 3) once reduced to the rational class (1/2, 0, 0) and
    # (1.0, 0, 0) to a float trace; (5/2, -2, -1) is a half-integer class
    # whose first step is not integral.  Each is refused up front.
    for x in ((Fraction(13, 2), -7, 3), (1.0, 0, 0),
              (Fraction(5, 2), Fraction(-2), Fraction(-1))):
        with patch("k3cert.chamber.divmod", create=True,
                   side_effect=AssertionError("reflected")), \
                pytest.raises(ChamberError, match="is not an integer class"):
            reduce_to_chamber(pentagon, x)


def test_reduce_off_the_cone_message(pentagon):
    # (-3, -3, -3) lies in the negative cone, where the reduction once ran
    # 1,000 steps; M = (0, 0, 1) has negative norm: one short line each
    for x in ((-3, -3, -3), (0, 0, 1)):
        with pytest.raises(ChamberError) as exc:
            reduce_to_chamber(pentagon, x)
        msg = str(exc.value)
        assert msg.startswith("%s is off the closed positive cone" % (x,))
        assert len(msg) < 100


def _sign(x):
    return x.sign() if isinstance(x, QuadExt) else (x > 0) - (x < 0)


def _quadext_rays(lat, wall, anchor):
    """The isotropic rays of the plane orthogonal to wall as the chamber
    once built them, as the oracle for the integer pairs: Fraction
    coordinates where the discriminant is a square or p is isotropic,
    QuadExt coordinates otherwise, each ray oriented toward the anchor."""
    _, _, (p, q) = form_basis(lat.pairing_row(wall))
    np_, npq, nq = lat.norm(p), lat.inner(p, q), lat.norm(q)
    disc = npq * npq - np_ * nq
    if np_ == 0:
        rays = [tuple(Fraction(c) for c in p),
                tuple(Fraction(-nq * pc + 2 * npq * qc) for pc, qc in zip(p, q))]
    elif is_square(disc):
        r = isqrt(disc)
        lams = [Fraction(-npq + s, np_) for s in (r, -r)]
        rays = [tuple(lam * pc + qc for pc, qc in zip(p, q)) for lam in lams]
    else:
        lams = [QuadExt(Fraction(-npq, np_), Fraction(s, np_), disc)
                for s in (1, -1)]
        rays = [tuple(lam * pc + qc for pc, qc in zip(p, q)) for lam in lams]
    out = []
    for ray in rays:
        s = _sign(Chamber.face_value(lat.pairing_row(anchor), ray))
        if s == 0:
            raise ChamberError("isotropic ray orthogonal to the anchor")
        out.append(ray if s > 0 else tuple(-c for c in ray))
    return out


def _pair_value(pair, d):
    """p + q sqrt(d) as a Fraction at square d, a QuadExt otherwise."""
    p, q = pair
    return Fraction(p + q * isqrt(d)) if is_square(d) else QuadExt(p, q, d)


def _pair_norm(lat, ray, d):
    """(ray, ray) for integer-pair coordinates, as an integer pair."""
    p = q = 0
    for (a, b), row in zip(ray, lat.gram):
        for (c, e), g in zip(ray, row):
            p += g * (a * c + d * b * e)
            q += g * (a * e + b * c)
    return p, q


def test_isotropic_rays(lat):
    # the plane orthogonal to v is spanned by f, e: p = (-1, 1, 0) is
    # isotropic, so the rays are rational, through (1,-1,0) and (1,-1,1)
    d, rays = isotropic_rays_in_wall(lat, V, H)
    assert all(q == 0 for ray in rays for _, q in ray)
    assert {tuple(p // ray[0][0] for p, _ in ray) for ray in rays} \
        == {(1, -1, 0), (1, -1, 1)}
    # the plane orthogonal to L has d = 40, not a square: irrational rays
    dl, rays_l = isotropic_rays_in_wall(lat, (0, 1, 0), H)
    assert dl == 40 and all(any(q for _, q in ray) for ray in rays_l)
    row = lat.pairing_row(H)
    for dd, rr in ((d, rays), (dl, rays_l)):
        assert len(rr) == 2
        for ray in rr:
            assert _pair_norm(lat, ray, dd) == (0, 0)
            assert pair_sign(row, ray, dd) > 0  # oriented toward the anchor


# walls of each kind of discriminant: p isotropic (V), a square d with p
# anisotropic (V' and the negative control's third wall) and a non-square
# d (L, M)
KNOWN_WALLS = [(GRAM, H, w) for w in (V, VP, W3, (-114, -47, 123),
                                      (0, 1, 0), (0, 0, 1))]


@st.composite
def _wall_planes(draw):
    """(gram, anchor, wall): a known wall, or an even lattice of signature
    (1, 2) with a positive anchor and a wall of negative norm.  The lattice
    has e1 of norm 2a > 0 and a negative definite span of e2, e3, so it has
    signature (1, 2) once it is nondegenerate; anchor and wall are drawn
    from the classes of a box with the right sign of norm, not filtered."""
    if draw(st.booleans()):
        return draw(st.sampled_from(KNOWN_WALLS))
    a, b, c = (draw(st.integers(1, 4)) for _ in range(3))
    x, y = (draw(st.integers(-4, 4)) for _ in range(2))
    z = draw(st.integers(-1, 1))
    gram = ((2 * a, x, y), (x, -2 * b, z), (y, z, -2 * c))
    assume(det_int(gram) != 0)
    lat = IntegerLattice(gram=gram)
    anchor = draw(st.sampled_from(
        [v for v in product(range(-2, 3), repeat=3) if lat.norm(v) > 0]))
    wall = draw(st.sampled_from(
        [v for v in product(range(-4, 5), repeat=3) if lat.norm(v) < 0]))
    return gram, anchor, wall


def test_known_walls_cover_every_kind_of_discriminant(lat):
    kinds = set()
    for _, _, wall in KNOWN_WALLS:
        _, _, (p, q) = form_basis(lat.pairing_row(wall))
        d, _ = isotropic_rays_in_wall(lat, wall, H)
        kinds.add("p-isotropic" if lat.norm(p) == 0
                  else "square" if is_square(d) else "non-square")
    assert kinds == {"p-isotropic", "square", "non-square"}


@settings(deadline=None, max_examples=200)
@given(_wall_planes(), st.lists(st.tuples(*[st.integers(-20, 20)] * 3),
                                min_size=3, max_size=3))
def test_integer_pair_rays_against_the_quadext_rays(plane, forms):
    gram, anchor, wall = plane
    lat = IntegerLattice(gram=gram)
    try:
        want = _quadext_rays(lat, wall, anchor)
    except ChamberError:
        with pytest.raises(ChamberError):
            isotropic_rays_in_wall(lat, wall, anchor)
        return
    d, rays = isotropic_rays_in_wall(lat, wall, anchor)
    assert len(rays) == len(want) == 2
    forms = forms + [lat.pairing_row(anchor), lat.pairing_row(wall)]
    for ray, ref in zip(rays, want):
        got = [_pair_value(c, d) for c in ray]
        # the same ray: proportional coordinates, oriented the same way
        assert all(got[i] * ref[j] == got[j] * ref[i]
                   for i in range(3) for j in range(3))
        assert _pair_norm(lat, ray, d) == (0, 0)
        for f in forms:
            assert pair_sign(f, ray, d) == _sign(Chamber.face_value(f, ref))


def _quadext_signs(chamber):
    """pingpong_certify's sign lists, from the oracle rays."""
    planes = [_quadext_rays(chamber.lattice, w, chamber.anchor)
              for w in chamber.walls]
    return [[["l%d" % (i + 1), _sign(chamber.wall_value(i, u))]
             for u in planes[j]]
            + [["l%d" % (j + 1), _sign(chamber.wall_value(j, u))]
               for u in planes[i]]
            for i in range(len(planes)) for j in range(len(planes))
            if i != j]


def test_pingpong_passes(pentagon):
    cert = pingpong_certify(pentagon)
    assert cert.passed
    assert len(cert.containments) == 6
    assert len(cert.anchor_conditions) == 3
    obj = cert.to_json()
    assert obj["pass"] is True
    assert all(c["pass"] for c in obj["containments"])


def test_pingpong_negative_control(lat):
    # third wall taken inside the cap of wall 2 (it is the mirror image of
    # wall 1 across wall 2), so the half-space disjointness must fail
    bad = Chamber(lattice=lat, anchor=H, walls=(V, VP, (-114, -47, 123)))
    cert = pingpong_certify(bad)
    assert not cert.passed
    assert any(not c["pass"] for c in cert.to_json()["containments"])
    assert [c["signs"] for c in cert.containments] == _quadext_signs(bad)


def test_pingpong_signs_against_the_quadext_rays(lat, pentagon):
    # the walls L and M have the non-square d = 40, so this chamber's
    # certificate signs irrational rays
    lm = Chamber(lattice=lat, anchor=H, walls=((0, 1, 0), (0, 0, 1), V))
    for ch in (pentagon, lm):
        cert = pingpong_certify(ch)
        assert [c["signs"] for c in cert.containments] == _quadext_signs(ch)
        assert cert.to_json()["containments"] == list(cert.containments)


def test_orbit_counts(pentagon):
    orbit = orbit_of_anchor(pentagon, 3)
    assert len(orbit) == 22
    assert len(set(orbit)) == 22
    assert orbit_of_anchor(pentagon, 0) == [H]


def _literal_orbit(chamber, max_word_len):
    """Every reduced word extended one wall at a time, through
    Isometry.apply, in the order of the words."""
    out = [chamber.anchor]
    frontier = [((), chamber.anchor)]
    for _ in range(max_word_len):
        frontier = [(word + (i,), r.apply(v)) for word, v in frontier
                    for i, r in enumerate(chamber.reflections)
                    if not word or word[-1] != i]
        out += [v for _, v in frontier]
    return out


def test_orbit_against_the_literal_walk(pentagon):
    for k in range(8):
        assert orbit_of_anchor(pentagon, k) == _literal_orbit(pentagon, k)


def test_orbit_duplicate_detection(lat):
    dup = Chamber(lattice=lat, anchor=H, walls=(V, V))
    with pytest.raises(ChamberError, match="duplicate"):
        orbit_of_anchor(dup, 2)
