from fractions import Fraction
from itertools import product
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
from k3cert.lattice import IntegerLattice
from k3cert.quadfield import QuadExt

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
    return IntegerLattice(gram=GRAM, labels=("H", "L", "M"))


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


def test_reduce_tie_break_against_the_literal_walk(lat):
    # the pentagon's wall caps are disjoint (ping-pong), so at most one wall
    # is violated at a time; the caps of L and M, both of norm -2, overlap
    # at (1, 1, 1), where the lowest index must win
    ch = Chamber(lattice=lat, anchor=H, walls=((0, 1, 0), (0, 0, 1), V))
    cone = _cone_box(lat)
    ties = [x for x in cone
            if sum(ch.wall_value(i, x) < 0 for i in range(3)) > 1]
    assert (1, 1, 1) in ties
    for x in cone:
        trace = reduce_to_chamber(ch, x)
        assert (trace.word, trace.result) == _literal_reduction(ch, x)
    assert reduce_to_chamber(ch, (1, 1, 1)).word[0] == 1


@pytest.fixture(scope="module")
def rank4():
    # the pentagon lattice plus an orthogonal <-2>
    lat4 = IntegerLattice(gram=tuple(row + (0,) for row in GRAM)
                          + ((0, 0, 0, -2),))
    return Chamber(lattice=lat4, anchor=H + (0,),
                   walls=tuple(w + (0,) for w in (V, VP, W3)))


@settings(deadline=None, max_examples=200)
@given(st.tuples(*[st.integers(-30, 30)] * 4),
       st.lists(st.integers(0, 2), max_size=6))
def test_reduce_against_the_literal_walk_off_rank_3(rank4, x, word):
    # a class of the cone moved by a word in the reflections, which keep
    # the cone
    lat = rank4.lattice
    assume(lat.norm(x) >= 0 and lat.inner(x, rank4.anchor) > 0)
    for i in word:
        x = rank4.reflections[i].apply(x)
    trace = reduce_to_chamber(rank4, x)
    assert (trace.word, trace.result) == _literal_reduction(rank4, x)


def test_reduce_rejects_a_non_integral_step(pentagon):
    # a half-integer class of the cone with 2(x, w)/(w, w) = 1/2 for the
    # third wall: off the integer contract, so no step is taken
    x = (Fraction(5, 2), Fraction(-2), Fraction(-1))
    with pytest.raises(ChamberError, match="not an integer class"):
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


def test_isotropic_rays(lat):
    rays = isotropic_rays_in_wall(lat, V, H)
    # the plane orthogonal to v is spanned by f, e; light cone meets it in
    # the rays through (1,-1,0) and (1,-1,1), both rational here
    as_sets = {tuple(r) for r in rays}
    assert len(as_sets) == 2
    for r in rays:
        acc = 0
        row = lat.pairing_row(H)
        for c, rc in zip(row, r):
            acc = acc + c * rc
        assert acc > 0  # oriented toward the anchor


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


def test_orbit_off_rank_3(rank4):
    # the walls, the anchor and so the orbit keep a last coordinate 0
    ch = rank4
    lat3 = IntegerLattice(gram=GRAM)
    ch3 = Chamber(lattice=lat3, anchor=H, walls=(V, VP, W3))
    orbit = orbit_of_anchor(ch, 5)
    assert orbit == _literal_orbit(ch, 5)
    assert orbit == [v + (0,) for v in orbit_of_anchor(ch3, 5)]


def test_orbit_duplicate_detection(lat):
    dup = Chamber(lattice=lat, anchor=H, walls=(V, V))
    with pytest.raises(ChamberError, match="duplicate"):
        orbit_of_anchor(dup, 2)
    # the same at rank 4
    lat4 = IntegerLattice(gram=tuple(row + (0,) for row in GRAM)
                          + ((0, 0, 0, -2),))
    dup4 = Chamber(lattice=lat4, anchor=H + (0,),
                   walls=(V + (0,), V + (0,)))
    with pytest.raises(ChamberError, match="duplicate"):
        orbit_of_anchor(dup4, 2)
