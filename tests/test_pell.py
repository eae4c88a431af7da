import functools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from k3cert import cli, isometry, pell
from k3cert.isometry import Isometry, discriminant_action
from k3cert.lattice import discriminant_group, lattice_points
from k3cert.quadfield import QuadExt, pair_sign, zsign
from k3cert.report import FAIL, PASS, SKIPPED, run_suite


@pytest.fixture(scope="module")
def ctx6():
    return pell.build_context(6)


@pytest.fixture(scope="module")
def res6(ctx6):
    return pell.isometry_search(ctx6)


@pytest.fixture(scope="module")
def run6(ctx6, res6):
    return pell.PellRun(ctx6, search=res6)


def test_context_validation():
    with pytest.raises(pell.PellError, match="l > 5"):
        pell.build_context(5)
    with pytest.raises(pell.PellError):
        pell.build_context(0)
    ctx = pell.build_context(6)
    assert ctx.lattice.gram == ((4, 24), (24, 4))
    assert ctx.d == 35


def test_rays(ctx6, run6):
    status, details = pell.check_rays(run6)
    assert status == PASS, details
    assert pell._zinner(ctx6, ctx6.v1, ctx6.v1) == (0, 0)
    assert pell._zinner(ctx6, ctx6.v2, ctx6.v2) == (0, 0)
    assert pell._zinner(ctx6, pell._lift(ctx6.anchor), ctx6.v1) == (0, 4)


def test_representation(ctx6):
    status, details = pell.check_representation(ctx6, box=60)
    assert status == PASS, details


@pytest.mark.parametrize("ell", [6, 29])
def test_representation_failure_names_the_first_hit(ell):
    # norm 4 is represented (the anchor), so the check fails; the hit it
    # names is the first one of the nested (x, y) loop the scan replaced
    ctx = pell.build_context(ell)
    targets = (0, 2, -2, 4)
    hits = {t: [] for t in targets}
    for x in range(-50, 51):
        for y in range(-50, 51):
            n = 4 * x * x + 8 * ell * x * y + 4 * y * y
            if (x, y) != (0, 0) and n in hits:
                hits[n].append((x, y))
    want = ["norm %d represented by %s" % (t, hits[t][0])
            for t in targets if hits[t]]
    assert want and all(not hits[t] for t in (0, 2, -2))
    assert pell.check_representation(ctx, targets=targets, box=50) == \
        (FAIL, "; ".join(want))


@pytest.mark.parametrize("ell", [6, 29])
def test_representation_names_the_first_hit_of_each_norm(ell):
    # one walk serves every target: each represented norm names its own
    # least (x, y), in the order of the targets
    ctx = pell.build_context(ell)
    targets = (36, 0, 4, 16)
    hits = {t: [] for t in targets}
    for x in range(-20, 21):
        for y in range(-20, 21):
            n = 4 * x * x + 8 * ell * x * y + 4 * y * y
            if (x, y) != (0, 0) and n in hits:
                hits[n].append((x, y))
    want = ["norm %d represented by %s" % (t, hits[t][0])
            for t in targets if hits[t]]
    assert len(want) == 3 and len({w.split(" by ")[1] for w in want}) == 3
    assert pell.check_representation(ctx, targets=targets, box=20) == \
        (FAIL, "; ".join(want))


def test_discriminant(ctx6):
    status, details = pell.check_discriminant(ctx6)
    assert status == PASS, details


@pytest.mark.parametrize("ell, box", [(6, 100), (93, 50)])
def test_lemma44(ell, box):
    # the report item: the representation scan (box 100 at l = 6, else 50)
    # and NS*/NS, both details joined
    ctx = pell.build_context(ell)
    d = ell * ell - 1
    assert pell.check_lemma44(pell.PellRun(ctx)) == (PASS, (
        "no vector of norm 0, 2 or -2 in box %d; factorization "
        "4((x+%dy)^2 - %d y^2) and irrationality close the gap; "
        "NS*/NS = Z_4 + Z_%d with the stated generators"
        % (box, ell, d, 4 * d)))


def test_lemma44_falsifiers(ctx6):
    # NS*/NS of the l = 7 lattice under the l = 6 context: wrong invariant
    # factors; an anchor of norm 4 + 8 l + 4: the representation half fails
    wrong_disc = replace(ctx6, disc=pell.build_context(7).disc)
    assert pell.check_lemma44(pell.PellRun(wrong_disc)) == (FAIL, (
        "no vector of norm 0, 2 or -2 in box 100; factorization "
        "4((x+6y)^2 - 35 y^2) and irrationality close the gap; "
        "invariant factors (4, 192) != (4, 140)"))
    status, details = pell.check_lemma44(
        pell.PellRun(replace(ctx6, anchor=(1, 1))))
    assert status == FAIL
    assert details == ("(h1^2) != 4; NS*/NS = Z_4 + Z_140 with the stated "
                       "generators")


def test_discriminant_large_ell():
    ctx = pell.build_context(93)
    status, details = pell.check_discriminant(ctx)
    assert status == PASS, details
    disc = discriminant_group(ctx.lattice)
    assert disc.invariant_factors == (4, 4 * (93 ** 2 - 1))
    g1 = (Fraction(1, 4), Fraction(0))
    g2 = (Fraction(-93, 4 * ctx.d), Fraction(1, 4 * ctx.d))
    # the order of a coordinate vector k in Z_d1 + Z_d2 is lcm(d_i / gcd(k_i, d_i))
    orders = [math.lcm(*(d // math.gcd(k, d) for k, d in
                         zip(disc.coordinates_of(g), disc.invariant_factors)))
              for g in (g1, g2)]
    assert orders == [4, 4 * (93 ** 2 - 1)]


def test_pell_columns_match_bruteforce():
    # the recurrence route must equal a direct scan for small bounds
    for ell in (6, 7):
        lat = pell.build_context(ell).lattice
        bound = 40
        direct = sorted(
            (a, b)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
            if lat.norm((a, b)) == 4)
        assert pell._pell_columns(ell, bound) == direct


def test_raw_isometries_include_identities(ctx6):
    mats = set(pell._raw_isometries(ctx6, 20))
    assert ((1, 0), (0, 1)) in mats
    assert ((-1, 0), (0, -1)) in mats
    assert ((0, 1), (1, 0)) in mats  # the ray swap


def test_generator_search(ctx6, res6):
    assert res6.g0.matrix == ((-143, -1704), (1704, 20305))
    assert res6.trace_a == 20162
    assert res6.alpha == QuadExt(10081, 1704, 35)
    assert res6.bound_used >= 300
    reasons = {r for _, r in res6.filtered_out}
    assert "ray-swapping" in reasons
    assert "cone-swapping" in reasons
    assert "discriminant-other" in reasons


def _quad_ray(ctx, ray):
    """A ray with integer-pair coordinates (p, q) as QuadExt coordinates."""
    return tuple(QuadExt(p, q, ctx.d) for p, q in ray)


def _quad_inner(ctx, x, y):
    """The pairing in QuadExt arithmetic: the oracle for pell._zinner."""
    gram = ctx.lattice.gram
    return sum((x[i] * gram[i][j] * y[j] for i in range(2) for j in range(2)),
               QuadExt(0, 0, ctx.d))


def _quad_eigen_ratio(ctx, m, ray):
    """The eigenvalue in QuadExt arithmetic throughout, on a ray of QuadExt
    coordinates: the oracle for the integer triple of pell._eigen_ratio."""
    img = tuple(sum(m[i][j] * ray[j] for j in range(2)) for i in range(2))
    if img[0] * ray[1] - img[1] * ray[0] != 0:
        return None
    for i in (0, 1):
        if ray[i] != QuadExt(0, 0, ctx.d):
            return img[i] / ray[i]
    return None


def _escalating_search(ctx, entry_bound=300):
    """The generator search by doubling the entry bound from entry_bound
    and rescanning every raw isometry until one with alpha > 1 passes."""
    disc = discriminant_group(ctx.lattice)
    for doublings in range(41):
        bound = entry_bound << doublings
        accepted, filtered = [], []
        for m in pell._raw_isometries(ctx, bound):
            g = Isometry(ctx.lattice, m)
            lam = _quad_eigen_ratio(ctx, g.matrix, _quad_ray(ctx, ctx.v1))
            if lam is None:
                filtered.append((g.matrix, "ray-swapping"))
            elif lam.sign() <= 0:
                filtered.append((g.matrix, "cone-swapping"))
            elif discriminant_action(g, disc) == "other":
                filtered.append((g.matrix, "discriminant-other"))
            else:
                accepted.append((g, lam))
        positive = [(g, lam) for g, lam in accepted if lam > 1]
        if positive:
            g0, alpha = positive[0]
            for g, lam in positive[1:]:
                if lam < alpha:
                    g0, alpha = g, lam
            return g0, alpha, bound, accepted, filtered
    raise AssertionError("no generator within 40 doublings")


@functools.cache
def _search(ell):
    return pell.isometry_search(pell.build_context(ell))


@pytest.mark.parametrize("ell", [6, 7, 8, 9, 10, 11, 12, 93])
def test_unit_walk_matches_escalating_search(ell):
    res = _search(ell)
    g0, alpha, bound, accepted, filtered = _escalating_search(
        pell.build_context(ell))
    assert res.g0 == g0 and res.alpha == alpha and str(res.alpha) == str(alpha)
    assert res.trace_a == g0.matrix[0][0] + g0.matrix[1][1]
    assert res.bound_used == bound
    assert res.accepted == accepted
    assert res.filtered_out == filtered


def _eps4(ell):
    """eps^4 = u + b sqrt(l^2 - 1) for eps = l + sqrt(l^2 - 1), acting on
    (h1, h2) coordinates as ((u - l b, -b), (b, u + l b))."""
    d = ell * ell - 1
    u, b = 1, 0
    for _ in range(4):
        u, b = ell * u + d * b, u + ell * b
    return ((u - ell * b, -b), (b, u + ell * b))


ELLS = list(range(6, 30)) + [57, 93]


@pytest.mark.parametrize("ell", ELLS)
def test_generator_is_the_fourth_power_of_the_unit(ell):
    # any other exponent is news
    g0 = _search(ell).g0.matrix
    assert g0 == _eps4(ell), (
        "news: at l = %d the generator %s is not eps^4" % (ell, g0))


def _literal_isometry(gram, m):
    """Every entry of M^T G M equals G's, each as a triple sum."""
    return all(sum(m[k][i] * gram[k][l] * m[l][j]
                   for k in range(2) for l in range(2)) == gram[i][j]
               for i in range(2) for j in range(2))


@pytest.mark.parametrize("ell", ELLS)
def test_raw_matrices_are_the_checked_isometries(ell):
    # at the certificate's bound the matrix-first scan admits exactly the
    # pairs of Pell columns with M^T G M = G, and the checked constructor,
    # the oracle, accepts every one of them
    ctx, res = pell.build_context(ell), _search(ell)
    cols = pell._pell_columns(ell, res.bound_used)
    raw = pell._raw_isometries(ctx, res.bound_used)
    assert raw == [m for c1 in cols for c2 in cols
                   for m in [((c1[0], c2[0]), (c1[1], c2[1]))]
                   if _literal_isometry(ctx.lattice.gram, m)]
    assert all(Isometry(ctx.lattice, m).matrix == m for m in raw)
    # the search files each admitted matrix once, and builds an Isometry
    # only for the accepted ones
    filed = ([m for m, _ in res.filtered_out]
             + [g.matrix for g, _ in res.accepted])
    assert sorted(filed) == sorted(raw)
    assert all(isinstance(g, Isometry) for g, _ in res.accepted)


@pytest.mark.parametrize("ell", [6, 93])
def test_each_raw_matrix_is_filtered_once(ell, monkeypatch):
    # the walk files its verdicts for the scan, so every matrix of the
    # scan is filtered once, the walk's powers included; and the walk
    # builds an Isometry only for the power it returns
    filtered, built, walk_built = [], [], []
    filter_, walk, isometry_ = pell._filter, pell._unit_walk, pell.Isometry

    def counted_filter(ctx, disc, m):
        filtered.append(m)
        return filter_(ctx, disc, m)

    def counted_isometry(lat, m):
        built.append(m)
        return isometry_(lat, m)

    def counted_walk(*args):
        before = len(built)
        g = walk(*args)
        walk_built.append(len(built) - before)
        return g
    monkeypatch.setattr(pell, "_filter", counted_filter)
    monkeypatch.setattr(pell, "Isometry", counted_isometry)
    monkeypatch.setattr(pell, "_unit_walk", counted_walk)
    ctx = pell.build_context(ell)
    res = pell.isometry_search(ctx)
    assert sorted(filtered) == sorted(pell._raw_isometries(ctx, res.bound_used))
    assert walk_built == [1]


@pytest.mark.parametrize("planted", [(7, 0), (1, 1), (0, 0)])
def test_planted_column_fails_lemma_46_by_name(planted, monkeypatch):
    # a column of norm != 4 fails the search whether or not it pairs 4 l
    # with another column ((7, 0) pairs 28 with h1 at l = 7)
    columns = pell._pell_columns
    monkeypatch.setattr(pell, "_pell_columns", lambda ell, bound: sorted(
        columns(ell, bound) + [planted]))
    report = pell.full_section4_certificate(ell_range=[7], k_bound=1)
    item = next(it for it in report.items if it.id == "lemma-4.6-ell-7")
    assert item.status == FAIL and not report.ok
    assert "PellError" in item.details
    assert "Pell column %s has norm" % (planted,) in item.details


@settings(deadline=None, max_examples=25)
@given(st.one_of(st.just(10 ** 22), st.integers(6, 10 ** 6)),
       st.permutations(range(-50, 51)))
def test_power_table_against_binary_powers(ell, order):
    # read in a random order, each entry equals the binary exponentiation;
    # reading |k| <= 50 costs 98 composes and one inverse
    g0 = Isometry(pell.build_context(ell).lattice, _eps4(ell))
    calls = {"compose": 0, "inverse": 0}
    compose, inverse = isometry.compose, Isometry.inverse

    def counted_compose(p, q):
        calls["compose"] += 1
        return compose(p, q)

    def counted_inverse(g):
        calls["inverse"] += 1
        return inverse(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isometry, "compose", counted_compose)
        mp.setattr(Isometry, "inverse", counted_inverse)
        table = isometry.PowerTable(g0)
        got = {k: table[k] for k in order}
    assert calls == {"compose": 98, "inverse": 1}
    for k in order:
        assert got[k].matrix == g0.power(k).matrix


def test_search_gives_up_after_its_unit_powers(ctx6, monkeypatch):
    # with every candidate rejected the walk must stop, not run forever
    calls = []

    def reject(ctx, disc, g):
        calls.append(g)
        return "ray-swapping", None

    monkeypatch.setattr(pell, "_filter", reject)
    with pytest.raises(pell.PellError, match="eps\\^%d$"
                       % pell.UNIT_WALK_POWERS):
        pell.isometry_search(ctx6)
    assert len(calls) == pell.UNIT_WALK_POWERS


def test_scan_rejects_a_wrong_walk(ctx6, res6, monkeypatch):
    # the walk proposes g0^2; the scan at its bound finds the smaller g0
    monkeypatch.setattr(pell, "_unit_walk",
                        lambda ctx, disc, verdicts: res6.g0.power(2))
    with pytest.raises(pell.PellError, match="the unit walk"):
        pell.isometry_search(ctx6)


def test_search_at_a_huge_entry_bound(ctx6, res6):
    res = pell.isometry_search(ctx6, entry_bound=10 ** 12)
    assert res.bound_used == 10 ** 12
    assert res.g0 == res6.g0 and res.alpha == res6.alpha


def test_power_check_past_the_cli_cap(ctx6, res6):
    # at ell = 6, from about 10^280 the bound holds g0^64: the power check
    # walks the table until the entries pass the candidate's, not 64 powers
    res = pell.isometry_search(ctx6, entry_bound=10 ** 285)
    assert res.g0 == res6.g0 and res.alpha == res6.alpha
    ks = [k for k in range(-80, 81)
          if any(g.matrix == res.powers[k].matrix for g, _ in res.accepted)]
    assert max(map(abs, ks)) >= 64


@settings(deadline=None, max_examples=50)
@given(st.one_of(st.sampled_from([6, 7, 12, 93]), st.integers(6, 300)),
       st.data())
def test_eigen_ratio_against_quadext_arithmetic(ell, data):
    ctx = pell.build_context(ell)
    g = Isometry(ctx.lattice, data.draw(
        st.sampled_from(pell._raw_isometries(ctx, 4 * ell * ell))))
    g = g.power(data.draw(st.integers(-3, 3)))
    # scaling a ray by a nonzero s + t sqrt(d) keeps its eigenvalue
    scale = data.draw(st.tuples(st.integers(-50, 50), st.integers(-50, 50))
                      .filter(any))
    for ray in (ctx.v1, ctx.v2, (ctx.v1[0], ctx.v2[1])):
        scaled = tuple(pell._zmul(c, scale, ctx.d) for c in ray)
        lam = pell._eigen_ratio(ctx, g.matrix, scaled)
        want = _quad_eigen_ratio(ctx, g.matrix, _quad_ray(ctx, scaled))
        if want is None:
            assert lam is None
        else:
            assert lam[2] > 0 and pell._quad(lam, ctx.d) == want
            # the filters read the sign of lam and lam > 1 off the triple
            assert (zsign(lam[0], lam[1], ctx.d) > 0) == (want > 0)
            assert (zsign(lam[0] - lam[2], lam[1], ctx.d) > 0) == (want > 1)


@settings(deadline=None, max_examples=50)
@given(st.integers(6, 300), st.data())
def test_ray_pairing_against_quadext_arithmetic(ell, data):
    ctx = pell.build_context(ell)
    coords = st.integers(-10 ** 6, 10 ** 6)
    h = (data.draw(coords), data.draw(coords))
    rays = (ctx.v1, ctx.v2)
    for x, y in [(pell._lift(h), r) for r in rays] + [rays, rays[::-1]]:
        p, q = pell._zinner(ctx, x, y)
        want = _quad_inner(ctx, _quad_ray(ctx, x), _quad_ray(ctx, y))
        assert QuadExt(p, q, ctx.d) == want
        assert pell._pairing_sign(ctx, x, y) == want.sign()


@settings(deadline=None, max_examples=50)
@given(st.one_of(st.sampled_from([6, 7, 93, 10 ** 22]), st.integers(6, 300)),
       st.data())
def test_class_ray_sign_against_quadext_arithmetic(ell, data):
    # enumerate_H_orbit reads the sign of (h, ray) off h's integer pairing
    # row, with the pair_sign that also signs the chamber's rays
    ctx = pell.build_context(ell)
    coords = st.integers(-10 ** 6, 10 ** 6)
    h = (data.draw(coords), data.draw(coords))
    for ray in (ctx.v1, ctx.v2):
        want = _quad_inner(ctx, _quad_ray(ctx, pell._lift(h)),
                           _quad_ray(ctx, ray))
        row = ctx.lattice.pairing_row(h)
        assert pair_sign(row, ray, ctx.d) == want.sign()


@settings(deadline=None, max_examples=20)
@given(st.integers(6, 9), st.data())
def test_pell_discriminant_action_against_the_scan(ell, data):
    # the integer +-id test against the images of every coset of NS*/NS
    ctx = pell.build_context(ell)
    disc = discriminant_group(ctx.lattice)
    g = Isometry(ctx.lattice, data.draw(
        st.sampled_from(pell._raw_isometries(ctx, 4 * ell * ell))))
    g = g.power(data.draw(st.integers(-2, 2)))
    pairs = [(tuple(g.matrix[i][0] * u[0] + g.matrix[i][1] * u[1]
                    for i in (0, 1)), u) for _, u in disc.elements()]
    want = "other"  # identity wins when both hold, so it is tested last
    for kind, sign in (("negation", -1), ("identity", 1)):
        if all((a - sign * b).denominator == 1
               for img, u in pairs for a, b in zip(img, u)):
            want = kind
    assert discriminant_action(g, disc) == want


def test_verify_pell_at_large_ell(capsys):
    # the generator eps^4 has entries near (2 l)^4, about 3.3e14 at
    # l = 2131 and 1.6e21 at l = 100000: the walk counts powers, not digits
    for ell in (2131, 100000):
        assert cli.main(["verify", "pell", "--ell", str(ell)]) == 0
        out = capsys.readouterr().out
        assert "lemma-4.6-ell-%d" % ell in out and "6 pass, 0 fail" in out


def test_alpha_homomorphism(ctx6, res6, run6):
    status, details = pell.check_alpha_homomorphism(run6)
    assert status == PASS, details
    beta = pell._eigen_ratio(ctx6, res6.g0.matrix, ctx6.v2)
    assert res6.alpha * pell._quad(beta, ctx6.d) == 1


def test_orbit(ctx6, res6, run6):
    status, details = pell.check_H_orbit(run6)
    assert status == PASS, details
    orbit, problems = pell.enumerate_H_orbit(ctx6, res6, k_bound=5)
    assert problems == [] and len(orbit) == 11
    assert (1, 0) in orbit


def test_orbit_computed_once_per_ell(monkeypatch):
    calls = []
    enumerate_H_orbit = pell.enumerate_H_orbit

    def counted(ctx, res, k_bound=5):
        calls.append(ctx.ell)
        return enumerate_H_orbit(ctx, res, k_bound)
    monkeypatch.setattr(pell, "enumerate_H_orbit", counted)
    report = pell.full_section4_certificate(ell_range=[6, 7], k_bound=2)
    assert report.ok
    assert calls == [6, 7]


def test_takahashi_obstruction(ctx6):
    status, details = pell.takahashi_obstruction(ctx6, (1, 0))
    assert status == PASS, details
    assert "560" in details
    with pytest.raises(pell.PellError):
        pell.takahashi_obstruction(ctx6, (1, 1))  # norm != 4


def test_independent_class_scan_finds_planted_case():
    # sanity-check the exhaustive route against a lattice that does have
    # independent low-degree classes: ell would need to violate l > 5, so
    # drive the helper directly on a small-determinant relative
    from k3cert.lattice import IntegerLattice
    ctx = pell.build_context(6)
    found = pell._independent_low_degree_classes(ctx, (1, 0), 16)
    assert found == []
    # with a much higher cap the slab must eventually contain h2
    wide = pell._independent_low_degree_classes(ctx, (1, 0), 25)
    assert (0, 1) in wide


@pytest.mark.parametrize("ell", ELLS)
def test_slab_of_each_orbit_class_is_the_image_of_h1s(ell):
    # the slab scan at each orbit class is the oracle for the transport of
    # h1's slab along the orbit that check_obstruction relies on
    ctx = pell.build_context(ell)
    lat, g0 = ctx.lattice, _search(ell).g0
    slab = lattice_points(lat, ctx.anchor, range(1, pell.DEGREE_CAP), 0)
    assert slab == [(1, 0), (2, 0), (3, 0)]
    for k in range(-5, 6):
        g = g0.power(k)
        h = g.apply(ctx.anchor)
        assert lattice_points(lat, h, range(1, pell.DEGREE_CAP), 0) == \
            sorted(g.apply(c) for c in slab)


def test_obstruction_scans_once_per_ell(monkeypatch):
    calls = []
    takahashi_obstruction = pell.takahashi_obstruction

    def counted(ctx, h):
        calls.append((ctx.ell, h))
        return takahashi_obstruction(ctx, h)
    monkeypatch.setattr(pell, "takahashi_obstruction", counted)
    report = pell.full_section4_certificate(ell_range=[6, 7], k_bound=2)
    assert report.ok
    assert calls == [(6, (1, 0)), (7, (1, 0))]


def test_one_discriminant_group_and_one_box_walk_per_ell(monkeypatch):
    # lemmas 4.4 and 4.6 share the context's NS*/NS, and lemma 4.4 finds
    # the norms 0, 2 and -2 in one walk of its box
    discs, walks = [], []
    discriminant_group, solve_norm_system = (pell.discriminant_group,
                                             pell.solve_norm_system)

    def counted_disc(lat):
        discs.append(lat.gram[0][1] // 4)
        return discriminant_group(lat)

    def counted_walk(lat, constraints, norm, box):
        walks.append((lat.gram[0][1] // 4, norm))
        return solve_norm_system(lat, constraints, norm, box)
    monkeypatch.setattr(pell, "discriminant_group", counted_disc)
    monkeypatch.setattr(pell, "solve_norm_system", counted_walk)
    report = pell.full_section4_certificate(ell_range=[6, 7], k_bound=2)
    assert report.ok
    assert discs == [6, 7]
    assert walks == [(6, (0, 2, -2)), (7, (0, 2, -2))]


def test_planted_non_isometry_fails_the_orbit_items_by_name():
    # eps^4 times a shear has det 1 but is no isometry; at l = 10^22 and
    # k = 50 its orbit classes have norms far past the 4300-digit limit of
    # int-to-str, so a failure must name each class as g0^k(h1)
    ell = 10 ** 22
    ctx = pell.build_context(ell)
    (a, b), (c, d) = _eps4(ell)
    bad = Isometry._trusted(ctx.lattice, ((a + b, b), (c + d, d)))
    search = pell.GeneratorSearchResult(g0=bad, alpha=None, trace_a=None,
                                        bound_used=None, accepted=[],
                                        filtered_out=[])
    run = pell.PellRun(ctx, k_bound=50, search=search)
    items = run_suite([s for s in pell.SUITE
                       if s[0] in ("lemma-4.7", "lemma-4.8")], run).items
    assert [it.status for it in items] == [FAIL, FAIL]
    for it in items:
        assert "orbit class g0^50(h1) does not have norm 4" in it.details
        assert "exception" not in it.details and len(it.details) < 10 ** 4


def test_full_certificate_small_range():
    report = pell.full_section4_certificate(ell_range=[7], k_bound=2)
    assert report.ok
    ids = {it.id for it in report.items}
    assert "lemma-4.6-ell-7" in ids
    g0_item = next(it for it in report.items if it.id == "lemma-4.6-ell-7")
    assert "-195" in g0_item.details  # the generator matrix is reported


def test_search_crash_fails_only_its_item(monkeypatch):
    search = pell.isometry_search

    def crash_at_6(ctx, entry_bound=300):
        if ctx.ell == 6:
            raise RuntimeError("search crashed")
        return search(ctx, entry_bound=entry_bound)

    monkeypatch.setattr(pell, "isometry_search", crash_at_6)
    report = pell.full_section4_certificate(ell_range=[6, 7], k_bound=2)
    status = {it.id: it.status for it in report.items}
    crash = next(it for it in report.items if it.id == "lemma-4.6-ell-6")
    assert crash.status == FAIL
    assert "RuntimeError" in crash.details
    assert "pell.py:check_generator" in crash.details
    for item in ("lemma-4.6-alpha", "lemma-4.7", "lemma-4.8"):
        assert status[item + "-ell-6"] == SKIPPED
    assert [s for i, s in status.items() if i.endswith("-ell-7")] == [PASS] * 6


def test_check_generator_rejects_a_wrong_alpha(ctx6, res6):
    alpha, a = res6.alpha, res6.trace_a
    pell._check_generator(ctx6, res6)
    with pytest.raises(pell.PellError, match="does not satisfy"):
        pell._check_generator(ctx6, replace(res6, alpha=alpha + 1,
                                            accepted=[]))
    with pytest.raises(pell.PellError, match="does not satisfy"):
        pell._check_generator(ctx6, replace(res6, trace_a=a + 2, accepted=[]))
    # the conjugate root satisfies the quadratic but is 1 / alpha
    with pytest.raises(pell.PellError, match="alpha \\* beta"):
        pell._check_generator(ctx6, replace(res6, alpha=alpha.conjugate(),
                                            accepted=[]))
