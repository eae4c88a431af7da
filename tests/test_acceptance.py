"""End-to-end acceptance checks, one test per headline claim."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from k3cert import cli, pell, quartic, weierstrass
from k3cert.chamber import pingpong_certify, orbit_of_anchor
from k3cert.isometry import mw_translation, reflection_in
from k3cert.lattice import discriminant_group
from k3cert.report import DISCREPANCY, PASS


ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference" / "certificate.json"
# verify pell --ell N --json for the pell-sweep l = 6..29, 57 and 93
PELL_REFERENCE = ROOT / "tests" / "reference" / "pell-sweep.json"


@pytest.fixture(scope="module")
def qctx():
    return quartic.build_context()


@pytest.fixture(scope="module")
def pell6():
    ctx = pell.build_context(6)
    return ctx, pell.isometry_search(ctx)


def test_criterion_1_discriminant_groups(qctx):
    disc = discriminant_group(qctx.lattice_fev)
    assert disc.invariant_factors == (20,)
    assert disc.generators[0] == (0, 0, Fraction(1, 20))  # the class v/20
    for ell in range(6, 13):
        status, details = pell.check_discriminant(pell.build_context(ell))
        assert status == PASS, "ell=%d: %s" % (ell, details)


def test_criterion_2_Q_enumeration(qctx):
    expected = sorted([(1, 0, 0), (2, -1, -1), (3, -3, 1), (3, 1, -3)])
    assert quartic.enumerate_Q_bruteforce(qctx) == expected
    assert quartic.enumerate_Q_bound_argument(qctx) == expected
    kinds = {h: quartic.classify_polarization(qctx, h) for h in expected}
    assert [h for h, k in kinds.items() if k == "very_ample"] == [(1, 0, 0)]


def test_criterion_3_matrix_identities(qctx):
    latf = qctx.lattice_fev
    iota1, _, iota3 = qctx.chamber.reflections
    assert qctx.isometry_to_fev(iota1).matrix == \
        ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    phi1 = mw_translation(latf, 1)
    for n in range(-5, 6):
        t = mw_translation(latf, n)
        assert t.matrix == ((1, 10 * n * n, 20 * n), (0, 1, 0), (0, n, 1))
        assert t.matrix == phi1.power(n).matrix
    iota3 = qctx.isometry_to_fev(iota3)
    assert iota3.matrix == quartic.IOTA3_FEV
    assert iota3.power(2).is_identity()
    assert latf.norm((10, 0, 1)) == -20
    assert reflection_in(latf, (10, 0, 1)).matrix == iota3.matrix
    # Isometry construction itself enforces exact Gram preservation;
    # double-check one instance by hand
    m = iota3.matrix
    g = latf.gram
    for i in range(3):
        for j in range(3):
            acc = sum(m[k][i] * g[k][l] * m[l][j]
                      for k in range(3) for l in range(3))
            assert acc == g[i][j]


def test_criterion_4_pingpong_orbit_reduction(qctx):
    cert = pingpong_certify(qctx.chamber)
    assert cert.passed
    assert len(cert.containments) == 6
    assert len(cert.anchor_conditions) == 3
    orbit = orbit_of_anchor(qctx.chamber, 3)
    assert len(orbit) == len(set(orbit)) == 22
    assert all(qctx.lattice.norm(x) == 4 for x in orbit)
    status, details = quartic.check_lemma310(qctx, rounds=100)
    assert status == PASS, details


def test_criterion_5_section_enumeration(qctx):
    sols, fit, has_zero_section = quartic.enumerate_sections(qctx, n_bound=3)
    assert fit == (10, 0, -1)
    assert has_zero_section
    for a, b, n in sols:
        assert qctx.lattice_fev.inner((a, b, n), (1, 0, 0)) == 1
        assert qctx.lattice_fev.norm((a, b, n)) == -2
    status, details = quartic.check_translation_matrices(qctx)
    assert status == PASS, details
    status, details = quartic.check_sections(qctx)
    assert status == DISCREPANCY
    assert "10 n^2 - 1" in details and "10 n^2" in details


def test_criterion_6_pell_generator(pell6):
    ctx, res = pell6
    assert res.bound_used >= 300
    a = res.trace_a
    assert a >= 3
    alpha = res.alpha
    assert alpha > 1
    assert alpha * alpha - a * alpha + 1 == 0
    beta = pell._quad(pell._eigen_ratio(ctx, res.g0.matrix, ctx.v2), ctx.d)
    assert alpha * beta == 1
    assert res.g0.det() == 1
    from k3cert.isometry import discriminant_action
    disc = discriminant_group(ctx.lattice)
    assert discriminant_action(res.g0, disc) in ("identity", "negation")
    status, details = pell.check_H_orbit(pell.PellRun(ctx, search=res))
    assert status == PASS, details
    orbit, problems = pell.enumerate_H_orbit(ctx, res, k_bound=5)
    assert problems == [] and len(orbit) == 11


def test_criterion_7_obstruction_all_ell():
    for ell in range(6, 13):
        ctx = pell.build_context(ell)
        res = pell.isometry_search(ctx)
        orbit, _ = pell.enumerate_H_orbit(ctx, res, k_bound=2)
        for h in orbit:
            status, details = pell.takahashi_obstruction(ctx, h)
            assert status == PASS, "ell=%d h=%s: %s" % (ell, h, details)


def test_criterion_8_weierstrass():
    status, details = weierstrass.check_inverse_composition()
    assert status == PASS, details
    assert len(weierstrass._TEST_CURVES) >= 3
    for p, q, base, ab in weierstrass._TEST_CURVES:
        sums = weierstrass.SumTable(weierstrass.WeierstrassCurve(p, q))
        samples = weierstrass._sample_points(
            sums, weierstrass.CurvePoint.affine(*base))
        convention, n = weierstrass.restriction_agreement(
            sums, weierstrass.CurvePoint.affine(*ab), samples)
        assert n >= 20
        assert convention == "addition-then-negation"
    status, details = weierstrass.check_finite_automorphisms()
    assert status == PASS, details
    for d, p, q, order in ((2, -2, 1, 2), (4, 5, 0, 4), (6, 0, 7, 6)):
        _, got = weierstrass.finite_automorphism(d, p, q)
        assert got == order


def test_criterion_9_report_determinism(tmp_path):
    # the stored golden report, read and never written here
    reference = json.loads(REFERENCE.read_text())
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        assert cli.main(["verify", "all", "--json", str(path)]) == 0

    assert _normalized(paths[0]) == _normalized(paths[1]) == reference


def _normalized(path):
    """A written report without the run-dependent elapsed_ms."""
    obj = json.loads(path.read_text())
    for item in obj["items"]:
        del item["elapsed_ms"]
    return obj


def test_criterion_10_pell_sweep_reports(tmp_path):
    # the stored golden reports, read and never written here
    reference = json.loads(PELL_REFERENCE.read_text())
    assert [r["ell"] for r in reference] == list(range(6, 30)) + [57, 93]
    path = tmp_path / "pell.json"
    for entry in reference:
        ell = entry["ell"]
        assert cli.main(["verify", "pell", "--ell", str(ell),
                         "--json", str(path)]) == 0
        assert _normalized(path) == entry["report"], "ell=%d" % ell
