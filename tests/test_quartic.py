import dataclasses
import itertools
import os
import subprocess
import sys

import pytest

import k3cert
from k3cert import cli, quartic
from k3cert.lattice import IntegerLattice, LatticeError
from k3cert.chamber import in_chamber, pingpong_certify
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
    src = os.path.dirname(os.path.dirname(k3cert.__file__))
    code = ("import sys, k3cert.quartic, k3cert.pell; "
            "assert 'sympy' not in sys.modules, 'sympy was imported'")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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


def test_degree_one_curves(ctx):
    status, details = quartic.check_lemma37(ctx)
    assert status == PASS, details


def test_pentagon_faces(ctx):
    status, details = quartic.check_lemma38(ctx)
    assert status == PASS, details


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


def test_full_certificate(ctx):
    report = quartic.full_section3_certificate(ctx)
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
