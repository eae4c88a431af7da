import json
import os
import subprocess
import sys

import pytest

from k3cert import cli, quartic
from k3cert.chamber import orbit_of_anchor
from k3cert.report import Report


def run(argv):
    return cli.main(argv)


def test_reduce_trivial(capsys):
    # leading-minus values need the = form so argparse does not read a flag
    assert run(["reduce", "--class=2,-1,-1"]) == 0
    out = capsys.readouterr().out
    assert "reduced to (2, -1, -1) via wall word []" in out


def test_reduce_fev_basis(capsys):
    # H = 4 f + 3 e + v
    assert run(["reduce", "--class", "4,3,1", "--basis", "fev"]) == 0
    out = capsys.readouterr().out
    assert "reduced to (1, 0, 0) via wall word []" in out


def test_reduce_off_the_cone_exit_2(capsys):
    # the negative cone, a negative-norm class (M, also given in (f,e,v) as
    # e - f) and zero: one stderr line each, and no report
    for argv in (["reduce", "--class=-3,-3,-3"],
                 ["reduce", "--class", "0,0,1"],
                 ["reduce", "--class=-1,1,0", "--basis", "fev"],
                 ["reduce", "--class", "0,0,0"]):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "off the closed positive cone" in err


def test_reduce_nontrivial(capsys):
    # the mirror image of H across the first wall reduces in one reflection
    assert run(["reduce", "--class", "13,-14,6"]) == 0
    out = capsys.readouterr().out
    assert "wall word [1]" in out and "(1, 0, 0)" in out


def test_reduce_malformed_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["reduce", "--class", "x,y"])
    assert exc.value.code == 2


def test_orbit(capsys):
    assert run(["orbit", "--len", "3"]) == 0
    assert "22 distinct classes" in capsys.readouterr().out


@pytest.mark.parametrize("length", [0, 1, 2, 7])
def test_orbit_prints_the_repr_of_the_walk(capsys, length):
    orbit = orbit_of_anchor(quartic.build_context().chamber, length)
    assert run(["orbit", "--len", str(length)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "[PASS] orbit %d distinct classes up to word length %d: %r"
        % (len(orbit), length, orbit))


def test_enumerate_q(capsys):
    assert run(["enumerate", "q"]) == 0
    out = capsys.readouterr().out
    assert "(2, -1, -1)" in out and "very_ample" in out


def test_enumerate_sections(capsys):
    assert run(["enumerate", "sections", "--n-bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "10 n^2 + 0 n + -1" in out


def test_verify_quartic_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["verify", "quartic", "--json", str(path)]) == 0
    obj = json.loads(path.read_text())
    assert len(obj["items"]) >= 10
    statuses = {it["status"] for it in obj["items"]}
    assert statuses <= {"pass", "discrepancy"}
    assert obj["summary"]["fail"] == 0
    ids = [it["id"] for it in obj["items"]]
    assert ids == sorted(ids)


def test_verify_pell_single_ell(tmp_path, capsys):
    path = tmp_path / "pell.json"
    assert run(["verify", "pell", "--ell", "6", "--k-bound", "2",
                "--json", str(path)]) == 0
    obj = json.loads(path.read_text())
    item = next(it for it in obj["items"] if it["id"] == "lemma-4.6-ell-6")
    assert "-143" in item["details"]  # g0 matrix shown


@pytest.mark.parametrize("ell", [7, 100000, 10 ** 22])
def test_verify_pell_at_the_largest_k_bound(ell, capsys):
    # g0^k(h1) passes the 4300-digit int-to-str limit at k = 1000 and ell = 7,
    # and at k = 50 and ell = 10^22: no pass path prints an orbit class
    assert run(["verify", "pell", "--ell", str(ell),
                "--k-bound", str(cli.MAX_K_BOUND)]) == 0
    assert "6 pass, 0 fail" in capsys.readouterr().out


def test_verify_pell_at_the_largest_ell(capsys):
    # g0 = eps^4 and the entry bound print in full, 4,001 digits at the cap
    code, out, err = _call(["verify", "pell", "--ell", str(cli.MAX_ELL)],
                           capsys)
    assert code == 0 and err == ""
    assert "6 pass, 0 fail" in out


@pytest.mark.parametrize("argv", [
    ["--ell", str(cli.MAX_ELL + 1)],
    ["--ell", str(10 ** 1100)],
    ["--ell-range", "6..%d" % (cli.MAX_ELL + 1)],
    ["--ell-range", "%d..%d" % (cli.MAX_ELL, cli.MAX_ELL + 1)],
])
def test_verify_pell_above_the_largest_ell_exit_2(argv, capsys):
    # one stderr line and no report, before any lattice work starts
    code, out, err = _call(["verify", "pell"] + argv, capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "MAX_ELL" in err


@pytest.mark.parametrize("ell_range", [
    "6..1000000000",
    "6..%d" % (6 + cli.MAX_ELL_COUNT),
    "6..%d" % 10 ** 30,
    "%d..%d" % (cli.MAX_ELL - cli.MAX_ELL_COUNT, cli.MAX_ELL),
])
def test_verify_pell_range_above_the_largest_count_exit_2(ell_range, capsys,
                                                          monkeypatch):
    # one stderr line and no report, before any item runs: the count comes
    # from the ends of the range, never by walking it
    def no_items(*args, **kwargs):
        raise AssertionError("an item ran")
    monkeypatch.setattr(cli.pell, "full_section4_certificate", no_items)
    code, out, err = _call(["verify", "pell", "--ell-range", ell_range],
                           capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "MAX_ELL_COUNT" in err


def test_verify_pell_range_at_the_largest_count(capsys, monkeypatch):
    # MAX_ELL_COUNT values are accepted and handed on as they are
    seen = []

    def record(ells, **kwargs):
        seen.append(ells)
        return Report()
    monkeypatch.setattr(cli.pell, "full_section4_certificate", record)
    code, _, err = _call(["verify", "pell", "--ell-range",
                          "6..%d" % (5 + cli.MAX_ELL_COUNT)], capsys)
    assert code == 0 and err == ""
    assert seen == [range(6, 6 + cli.MAX_ELL_COUNT)]


def test_verify_pell_bad_ell_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "pell", "--ell", "3"])
    assert exc.value.code == 2


def test_verify_pell_bad_range_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "pell", "--ell-range", "9..6"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run(["verify", "pell", "--ell-range", "abc"])


_OVERSIZED = "1" * 4401   # past Python's 4,300-digit limit on int()


@pytest.mark.parametrize("argv, name", [
    (["reduce", "--class=%s,0,0" % _OVERSIZED], "--class"),
    (["reduce", "--class", "1,0,-%s" % _OVERSIZED], "--class"),
    (["verify", "pell", "--ell", _OVERSIZED], "argument --ell"),
    (["verify", "pell", "--ell-range", "6..%s" % _OVERSIZED], "--ell-range"),
    (["verify", "pell", "--entry-bound", _OVERSIZED], "argument --entry-bound"),
    (["verify", "pell", "--k-bound", _OVERSIZED], "argument --k-bound"),
    (["enumerate", "sections", "--n-bound", _OVERSIZED], "argument --n-bound"),
    (["orbit", "--len", _OVERSIZED], "argument --len"),
])
def test_oversized_integer_exit_2_naming_the_digit_limit(argv, name, capsys):
    # the error line names Python's limit on int conversion and echoes no
    # digits (it said '--class expects integers like "x,y,z"', and argparse
    # echoed all 4,401 digits of --ell)
    code, out, err = _call(argv, capsys)
    assert code == 2 and out == ""
    line = err.splitlines()[-1]
    assert line.endswith("error: %s: 4401 digits exceed Python's 4300-digit "
                         "limit on int conversion" % name)
    assert len(err) < 500


def test_malformed_integer_messages_are_kept(capsys):
    # a value that is not an integer keeps its message; a long one within
    # the digit limit is not mistaken for an oversized integer
    for argv, line in (
            (["verify", "pell", "--ell", "abc"],
             "error: argument --ell: invalid int value: 'abc'"),
            (["reduce", "--class", "x,y"],
             'error: --class expects integers like "x,y,z"'),
            (["reduce", "--class", "%s,%s,x" % ("1" * 3000, "1" * 3000)],
             'error: --class expects integers like "x,y,z"'),
            (["verify", "pell", "--ell-range", "abc"],
             "error: --ell-range expects A..B with integers")):
        code, out, err = _call(argv, capsys)
        assert code == 2 and out == ""
        assert err.splitlines()[-1].endswith(line), argv


def test_verify_weierstrass(capsys):
    assert run(["verify", "weierstrass"]) == 0
    out = capsys.readouterr().out
    assert "thm-2.2-inverse" in out


def test_out_of_range_bounds_exit_2(capsys, monkeypatch):
    # each value fails validation before any lattice work starts
    for argv in (["verify", "pell", "--ell", "6", "--k-bound", "-1"],
                 ["verify", "pell", "--ell", "7", "--k-bound",
                  str(cli.MAX_K_BOUND + 1)],
                 ["verify", "pell", "--ell", "6", "--entry-bound", "0"],
                 ["orbit", "--len", str(cli.MAX_ORBIT_LEN + 1)],
                 ["orbit", "--len", "-1"],
                 ["enumerate", "sections", "--n-bound", "0"],
                 ["enumerate", "sections", "--n-bound", "-2"],
                 ["enumerate", "sections", "--n-bound",
                  str(cli.MAX_N_BOUND + 1)]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    # above the entry cap: one stderr line and no report, before any suite
    # runs (10^1000 never finished before the cap)
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")
    monkeypatch.setattr(cli.pell, "full_section4_certificate", no_suite)
    monkeypatch.setattr(cli.quartic, "full_section3_certificate", no_suite)
    for suite, bound in (("pell", cli.MAX_ENTRY_BOUND + 1),
                         ("pell", 10 ** 1000),
                         ("all", 2 * cli.MAX_ENTRY_BOUND)):
        code, out, err = _call(["verify", suite, "--ell", "6",
                                "--entry-bound", str(bound)], capsys)
        assert code == 2 and out == "", bound
        assert err.count("\n") == 1 and "MAX_ENTRY_BOUND" in err


def test_verify_pell_at_the_largest_entry_bound(capsys):
    # at the cap every accepted candidate is within the power check's reach:
    # ell = 6 has the smallest unit, so the most powers of g0 within a bound
    code, out, _ = _call(["verify", "pell", "--ell", "6", "--entry-bound",
                          str(cli.MAX_ENTRY_BOUND)], capsys)
    assert code == 0, out
    assert "6 pass, 0 fail" in out
    assert "(entries <= %d)" % cli.MAX_ENTRY_BOUND in out


def _call(argv, capsys):
    """Exit code, stdout and stderr of one main(argv) call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_main_reuses_one_parser(capsys):
    # usage errors (exit 2) from argparse, from a subparser and from a
    # command's own check sit between valid calls on the cached parser
    calls = [["reduce", "--class", "13,-14,6"],
             ["reduce", "--class", "x,y"],
             ["orbit", "--len", "2"],
             ["orbit", "--len", "99"],
             ["enumerate", "nothing"],
             ["reduce", "--class=-1,1,0", "--basis", "fev"],
             ["orbit"],
             ["reduce", "--class", "13,-14,6"]]
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(_call(argv, capsys))
    assert [code for code, _, _ in alone] == [0, 2, 0, 2, 2, 2, 2, 0]
    cli.build_parser.cache_clear()
    together = [_call(argv, capsys) for argv in calls]
    assert together == alone
    assert cli.build_parser.cache_info().misses == 1


def test_main_reuses_one_quartic_context(capsys):
    # the chamber-walk commands and usage errors (exit 2), among them classes
    # off the positive cone, give on one cached context what each gives on a
    # freshly built one
    calls = [["reduce", "--class", "13,-14,6"],
             ["enumerate", "sections", "--n-bound", "0"],
             ["reduce", "--class=-1,1,0", "--basis", "fev"],
             ["orbit", "--len", "3"],
             ["reduce", "--class", "1,2"],
             ["enumerate", "q"],
             ["reduce", "--class=-3,-3,-3"],
             ["orbit", "--len", "99"],
             ["enumerate", "sections", "--n-bound", "2"],
             ["reduce", "--class", "13,-14,6"]]
    alone = []
    for argv in calls:
        quartic.build_context.cache_clear()
        alone.append(_call(argv, capsys))
    assert [code for code, _, _ in alone] == [0, 2, 2, 0, 2, 0, 2, 2, 0, 0]
    quartic.build_context.cache_clear()
    together = [_call(argv, capsys) for argv in calls]
    assert together == alone
    assert quartic.build_context.cache_info().misses == 1


# argv that reach every branch of the one-pass dispatch: no command, help,
# "--", an unknown command, a subcommand's own usage errors and leftovers
# for the top-level "unrecognized arguments" error, valid calls in the
# --class= and --class x,y,z forms, and a command's own range check
ARGV_CORPUS = [
    [], ["-h"], ["--help"], ["reduce", "-h"], ["--"], ["--", "reduce"],
    ["-h", "reduce"], ["frobnicate"], ["frobnicate", "--class=1,0,0"],
    ["--class=1,0,0", "reduce"],
    ["reduce", "--class=1,0,0", "--frob"],
    ["reduce", "--class", "13,-14,6", "extra", "--frob=2"],
    ["reduce", "--", "--class", "1,0,0"],
    ["reduce"], ["reduce", "--class"], ["reduce", "--class="],
    ["reduce", "--class", "1,0,0", "--basis", "xyz"],
    ["reduce", "--class=2,-1,-1"], ["reduce", "--class", "13,-14,6"],
    ["reduce", "--class", "4,3,1", "--basis", "fev"],
    ["reduce", "--cl=13,-14,6", "--bas", "HLM"],
    ["reduce", "--class", "x,y,z"], ["reduce", "--class=-3,-3,-3"],
    ["verify", "pell", "--ell", "5"], ["verify", "nothing"],
    ["verify", "--help"], ["orbit", "--len", "99"], ["orbit", "--len", "2"],
    ["orbit", "--len", "1", "--len", "2"], ["orbit", "--len", "two"],
    ["orbit"], ["enumerate", "q", "-h"], ["enumerate", "nothing"],
    ["enumerate", "sections", "--n-bound", "1", "q"],
]


def _full_tree(parser, argv):
    return parser.parse_args(argv)


@pytest.mark.parametrize("argv", ARGV_CORPUS,
                         ids=lambda argv: " ".join(argv) or "(empty)")
def test_one_pass_dispatch_matches_the_full_tree(argv, capsys, monkeypatch):
    # exit code, stdout and stderr of main equal those of main with the
    # full tree's parse_args, on the same cached parser
    one_pass = _call(argv, capsys)
    # where the full tree parses, both give the same namespace
    parser = cli.build_parser()
    try:
        assert cli.parse(parser, argv) == parser.parse_args(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    monkeypatch.setattr(cli, "parse", _full_tree)
    assert _call(argv, capsys) == one_pass


def test_main_reads_sys_argv_in_one_pass(capsys, monkeypatch):
    # a command's argv, from sys.argv or given as a tuple, never reaches the
    # full tree, leftovers included
    want = _call(["reduce", "--class=13,-14,6"], capsys)
    unknown = _call(["orbit", "--frob"], capsys)
    assert want[0] == 0 and unknown[0] == 2

    def full_tree(*args, **kwargs):
        raise AssertionError("the full tree parsed")
    monkeypatch.setattr(cli.build_parser(), "parse_args", full_tree)
    monkeypatch.setattr(sys, "argv", ["k3cert", "reduce", "--class=13,-14,6"])
    assert _call(None, capsys) == want
    assert _call(("reduce", "--class=13,-14,6"), capsys) == want
    monkeypatch.setattr(sys, "argv", ["k3cert", "orbit", "--frob"])
    assert _call(None, capsys) == unknown


@pytest.mark.parametrize("argv", [["verify", "pell", "--ell", "6"],
                                  ["reduce", "--class", "2,-1,-1"]])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_json_path_exit_2_before_any_check(argv, where, tmp_path,
                                                      capsys, monkeypatch):
    # the path is opened before any suite runs: one stderr line, no report
    path = tmp_path / "missing" / "x.json" if where != "directory" else tmp_path

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")
    monkeypatch.setattr(cli.pell, "full_section4_certificate", no_check)
    monkeypatch.setattr(cli, "reduce_to_chamber", no_check)
    monkeypatch.setattr(cli, "run_suite", no_check)
    code, out, err = _call(argv + ["--json", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: cannot write --json %s: " % path)


def test_json_path_is_created_before_the_items_run(tmp_path, capsys,
                                                   monkeypatch):
    path = tmp_path / "report.json"

    def check_the_file(ells, **kwargs):
        assert path.exists()
        return Report()
    monkeypatch.setattr(cli.pell, "full_section4_certificate", check_the_file)
    code, _, err = _call(["verify", "pell", "--ell", "6", "--json",
                          str(path)], capsys)
    assert code == 0 and err == ""
    assert json.loads(path.read_text())["items"] == []


def test_usage_error_leaves_an_existing_report(tmp_path, capsys):
    # the early writability check does not truncate: a class off the cone
    # and an out-of-range option both exit 2 with the old report in place
    path = tmp_path / "report.json"
    path.write_text("old report\n")
    for argv in (["reduce", "--class=-3,-3,-3"],
                 ["verify", "pell", "--ell", "3"]):
        code, out, _ = _call(argv + ["--json", str(path)], capsys)
        assert code == 2 and out == ""
        assert path.read_text() == "old report\n"


@pytest.mark.parametrize("argv", [["verify", "pell", "--ell", "3"],
                                  ["orbit", "--len", "99"],
                                  ["reduce", "--class=-3,-3,-3"]])
def test_usage_error_leaves_no_new_report(argv, tmp_path, capsys):
    # main creates the file up front and removes it when the command then
    # finds a usage error: an option out of range or a class off the cone
    path = tmp_path / "new.json"
    code, out, _ = _call(argv + ["--json", str(path)], capsys)
    assert code == 2 and out == ""
    assert not path.exists()


def test_python_m_k3cert_matches_main(capsys):
    # python -m k3cert runs main and exits with its code
    argv = ["reduce", "--class", "13,-14,6"]
    code, out, _ = _call(argv, capsys)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "k3cert"] + argv, env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (code, out)
