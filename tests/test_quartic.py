import dataclasses
import itertools
import os
import subprocess
import sys

import pytest

import k3cert
from k3cert import cli, quartic
from k3cert.lattice import IntegerLattice, LatticeError
from k3cert.chamber import Chamber, in_chamber, pingpong_certify
from k3cert.report import DISCREPANCY, FAIL, PASS


@pytest.fixture(scope="module")
def ctx():
    return quartic.build_context()


def test_context(ctx):
    assert ctx.lattice.gram == quartic.GRAM_HLM
    assert ctx.lattice_fev.gram == quartic.GRAM_FEV
    assert ctx.to_fev((1, 0, 0)) == (4, 3, 1)
    assert ctx.to_hlm((4, 3, 1)) == (1, 0, 0)
    assert ctx.to_fev(quartic.M) == (-1, 1, 0)  # zero section e - f


def test_norm_table(ctx):
    status, details = quartic.check_lemma31(ctx)
    assert status == PASS, details
    assert "det = +20" in details


def test_no_reducible_fibers(ctx):
    status, details = quartic.check_no_reducible_fibers(ctx)
    assert status == PASS, details
    assert "forced c^2 = 1/10 is not an integer square" in details


def test_no_reducible_fibers_algebraic_route_reads_the_lattice(ctx):
    # here the complement of <f, M> is spanned by (1, 1, 0) of norm -2
    planted = IntegerLattice(gram=((-2, 1, 0), (1, -2, 0), (0, 0, -2)))
    status, details = quartic.check_no_reducible_fibers(
        dataclasses.replace(ctx, lattice=planted))
    assert status == FAIL
    assert "algebraic route failed: c^2 = 1 is integral" in details


def test_quartic_and_pell_import_without_sympy():
    # each case in a fresh interpreter; the package itself imports nothing,
    # so a module loads only what it imports
    src = os.path.dirname(os.path.dirname(k3cert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for code in ("import sys, k3cert.quartic, k3cert.pell; "
                 "assert 'sympy' not in sys.modules, 'sympy was imported'",
                 "import sys, k3cert.lattice; "
                 "k3 = sorted(m for m in sys.modules if m.startswith('k3cert')); "
                 "assert k3 == ['k3cert', 'k3cert.lattice'], k3; "
                 "import k3cert.pell; "
                 "assert 'k3cert.chamber' not in sys.modules, 'chamber loaded'"):
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_runs_without_argparse():
    # in a fresh interpreter: argparse is only the tests' oracle of the CLI
    # parse, so neither the import nor help nor a usage error loads it
    src = os.path.dirname(os.path.dirname(k3cert.__file__))
    code = ("import sys, k3cert.cli as cli; "
            "assert 'argparse' not in sys.modules, 'argparse was imported'; "
            "codes = [cli.main(['-h']), cli.main(['orbit', '--len', 'x'])]; "
            "assert codes == [0, 2], codes; "
            "assert 'argparse' not in sys.modules, 'argparse was loaded'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_enumerate_sections(ctx):
    sols, fit, zero = quartic.enumerate_sections(ctx, n_bound=3)
    assert fit == (10, 0, -1)
    assert zero
    for a, b, n in sols:
        assert b == 1
        assert ctx.lattice_fev.norm((a, b, n)) == -2
        assert ctx.lattice_fev.inner((a, b, n), (1, 0, 0)) == 1


@pytest.mark.parametrize("n_bound", [1, 2, 3, 4])
def test_enumerate_sections_against_the_full_box(ctx, n_bound):
    # the (n, a) loop over the whole box that the line solve replaced
    box = 10 * n_bound * n_bound + 20 * n_bound
    want = [(a, 1, n) for n in range(-box, box + 1)
            for a in range(-box, box + 1)
            if 2 * a == 20 * n * n - 2 and 3 * a + 4 - 20 * n > 0]
    sols, fit, zero = quartic.enumerate_sections(ctx, n_bound=n_bound)
    assert sols == want
    assert fit == (10, 0, -1) and zero


def _sections(fit, n_bound=3):
    """(a, 1, n) for |n| <= n_bound with a = a2 n^2 + a1 n + a0."""
    a2, a1, a0 = fit
    return [(a2 * n * n + a1 * n + a0, 1, n)
            for n in range(-n_bound, n_bound + 1)]


@pytest.mark.parametrize("planted, message", [
    # a(1) - a(-1) odd: no integer a1
    ([s for s in _sections((10, 0, -1)) if s[2] != 1] + [(10, 1, 1)],
     "do not fit one quadratic"),
    # a(2) off the quadratic through n = -1, 0, 1
    ([s for s in _sections((10, 0, -1)) if s[2] != 2] + [(40, 1, 2)],
     "do not fit one quadratic"),
    # two sections at n = 1
    (_sections((10, 0, -1)) + [(19, 1, 1)], "do not fit one quadratic"),
    ([s for s in _sections((10, 0, -1)) if s[2] != 0],
     "missing section at n = 0"),
], ids=["odd difference", "off the quadratic", "two at one n",
        "missing n = 0"])
def test_sections_fit_falsifiers(ctx, planted, message, monkeypatch):
    # every planted class is effective: 3 a + 4 - 20 n > 0
    monkeypatch.setattr(quartic, "solve_norm_system",
                        lambda *args: sorted(planted))
    with pytest.raises(LatticeError, match=message):
        quartic.enumerate_sections(ctx, 3)


@pytest.mark.parametrize("fit", [(10, 0, -1), (3, -2, 5), (-1, 7, 40)])
def test_sections_fit_reads_any_integer_quadratic(ctx, fit, monkeypatch):
    # each planted class is effective, so all seven are kept
    planted = _sections(fit)
    monkeypatch.setattr(quartic, "solve_norm_system",
                        lambda *args: sorted(planted))
    assert quartic.enumerate_sections(ctx, 3)[:2] == (planted, fit)


@pytest.mark.parametrize("n_bound", [0, -3])
@pytest.mark.parametrize("check", [quartic.enumerate_sections,
                                   quartic.check_sections],
                         ids=["enumerate", "check"])
def test_sections_refuse_an_n_bound_below_1(ctx, check, n_bound):
    # the fit reads n = -1, 0, 1: -3 gave 3 sections and a fit, and a
    # discrepancy that checked no translation matrix
    with pytest.raises(LatticeError):
        check(ctx, n_bound)


def test_sections_status_is_discrepancy(ctx):
    status, details = quartic.check_sections(ctx)
    assert status == DISCREPANCY
    assert "10 n^2 - 1" in details and "10 n^2 f" in details


def test_translation_matrices(ctx):
    status, details = quartic.check_translation_matrices(ctx)
    assert status == PASS, details


def test_involution_composite(ctx):
    status, details = quartic.check_cor35(ctx)
    assert status == PASS, details


def test_reflection_vectors(ctx):
    status, details = quartic.check_reflection_vectors(ctx)
    assert status == PASS, details


@pytest.mark.parametrize("walls, details", [
    ((quartic.V, quartic.VP, (-114, -47, 123)),
     "iota3 is not the reflection in (4, -3, -3); iota3 does not match the "
     "displayed (f,e,v) matrix; 10 f + v is not a (-1)-eigenvector of iota3"),
    ((quartic.VP, quartic.V, quartic.W3),
     "iota1 is not the reflection in (-6, 7, -3); iota2 is not the reflection "
     "in (-6, -3, 7); iota1 is not diag(1,1,-1) in (f,e,v); iota2 does not "
     "fix f' and e'"),
], ids=["wrong third wall", "first two walls swapped"])
def test_reflection_vectors_read_the_chamber(ctx, walls, details):
    # cor-3.6 checks the reflections that reduce and orbit use: a chamber
    # with other walls fails with each identity it breaks
    chamber = Chamber(lattice=ctx.lattice, anchor=quartic.H, walls=walls)
    got = quartic.check_reflection_vectors(
        dataclasses.replace(ctx, chamber=chamber))
    assert got == (FAIL, details)


def test_degree_one_curves(ctx):
    status, details = quartic.check_lemma37(ctx)
    assert status == PASS, details


@pytest.mark.parametrize("gram, details", [
    # four degree-1 (-2)-classes, the same in the boxes of 20 and 50
    (((2, 1, 1), (1, -2, 0), (1, 0, -2)),
     "box 20 solutions [(0, 0, 1), (0, 1, 0), (1, -1, 0), (1, 0, -1)] != "
     "{L, M}; complete enumeration [(0, 0, 1), (0, 1, 0), (1, -1, 0), "
     "(1, 0, -1)] != {L, M}"),
    (((4, 1, 1), (1, -2, -1), (1, -1, -2)),
     "the L<->M swap acts as identity on NS*/NS"),
    (((4, 1, 1), (1, -2, 2), (1, 2, -2)),
     "the L<->M swap acts as negation on NS*/NS"),
], ids=["four classes", "swap is identity", "swap is negation"])
def test_lemma37_falsifiers(ctx, gram, details):
    planted = dataclasses.replace(ctx, lattice=IntegerLattice(gram=gram))
    assert quartic.check_lemma37(planted) == (FAIL, details)


def test_pentagon_faces(ctx):
    status, details = quartic.check_lemma38(ctx)
    assert status == PASS, details


@pytest.mark.parametrize("walls, rays, details", [
    # the cone over four of the five pentagon rays is a quadrilateral
    ((quartic.V, quartic.VP, quartic.W3), quartic.CHAMBER_RAYS[:4],
     "expected 5 facets, got 4"),
    # L as the third wall: each wall is a facet and vanishes on two rays,
    # but wall 3 is the contraction face (x, L) >= 0
    ((quartic.V, quartic.VP, quartic.L), quartic.CHAMBER_RAYS,
     "the walls and contraction faces are 4 distinct forms, expected 5")],
    ids=["four rays", "L as a wall"])
def test_pentagon_faces_falsifiers(ctx, walls, rays, details):
    chamber = Chamber(lattice=ctx.lattice, anchor=quartic.H, walls=walls,
                      extra_rays=rays)
    assert quartic.check_lemma38(dataclasses.replace(ctx, chamber=chamber)) \
        == (FAIL, details)


def test_Q_enumeration_routes_agree(ctx):
    brute = quartic.enumerate_Q_bruteforce(ctx)
    bound = quartic.enumerate_Q_bound_argument(ctx)
    assert brute == bound == sorted(
        [(1, 0, 0), (2, -1, -1), (3, -3, 1), (3, 1, -3)])


@pytest.mark.parametrize("box", [4, 12])
def test_Q_bruteforce_against_the_full_box(ctx, box):
    want = [x for x in itertools.product(range(-box, box + 1), repeat=3)
            if ctx.lattice.norm(x) == 4 and in_chamber(ctx.chamber, x)]
    assert quartic.enumerate_Q_bruteforce(ctx, box) == want


def test_classification(ctx):
    assert quartic.classify_polarization(ctx, (1, 0, 0)) == "very_ample"
    assert quartic.classify_polarization(ctx, (2, -1, -1)) == "hyperelliptic"
    assert quartic.classify_polarization(ctx, (3, -3, 1)) == "monogonal"
    assert quartic.classify_polarization(ctx, (3, 1, -3)) == "monogonal"
    with pytest.raises(LatticeError):
        quartic.classify_polarization(ctx, (0, 1, 0))


def test_Q_full_check(ctx):
    status, details = quartic.check_lemma39(ctx)
    assert status == PASS, details


def test_reduction_roundtrips(ctx):
    status, details = quartic.check_lemma310(ctx, rounds=25)
    assert status == PASS, details


def test_free_product_certificate(ctx):
    status, details = quartic.check_lemma311(ctx)
    assert status == PASS, details
    assert pingpong_certify(ctx.chamber).passed


def test_orbit(ctx):
    status, details = quartic.check_lemma313(ctx)
    assert status == PASS, details


def test_swap_symmetry(ctx):
    # the L <-> M mirror context verifies identically
    swapped = [(x[0], x[2], x[1]) for x in (quartic.F, quartic.E, quartic.V)]
    assert swapped == [list(quartic.FP), list(quartic.EP), list(quartic.VP)] \
        or tuple(map(tuple, swapped)) == (quartic.FP, quartic.EP, quartic.VP)


def test_full_certificate():
    report = quartic.full_section3_certificate()
    assert len(report.items) >= 10
    statuses = {it.id: it.status for it in report.items}
    assert statuses.pop("prop-3.3-sections") == DISCREPANCY
    assert all(s == PASS for s in statuses.values())
    assert report.ok


def test_verify_quartic_walks_the_Q_box_once(monkeypatch, capsys):
    # on a fresh context, lemmas 3.9 and 3.10 and `enumerate q` share one
    # norm-4 box walk: the context keeps Q
    fresh = quartic.build_context.__wrapped__()
    monkeypatch.setattr(quartic, "build_context", lambda: fresh)
    walks = []
    solve = quartic.solve_norm_system

    def counting(lat, constraints, norm, box):
        if norm == 4:
            walks.append(box)
        return solve(lat, constraints, norm, box)
    monkeypatch.setattr(quartic, "solve_norm_system", counting)
    assert cli.main(["verify", "quartic"]) == 0
    assert walks == [12]
    assert cli.main(["enumerate", "q"]) == 0
    assert walks == [12]
    assert "Q = [(1, 0, 0), (2, -1, -1), (3, -3, 1), (3, 1, -3)]" in (
        capsys.readouterr().out)
