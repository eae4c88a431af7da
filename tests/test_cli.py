import argparse
import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from k3cert import cli, quartic
from k3cert.chamber import orbit_of_anchor
from k3cert.report import Report


def run(argv):
    return cli.main(argv)


def test_reduce_trivial(capsys):
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


def test_reduce_malformed_exit_2(capsys):
    assert run(["reduce", "--class", "x,y"]) == 2


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


def test_verify_pell_bad_ell_exit_2(capsys):
    assert run(["verify", "pell", "--ell", "3"]) == 2


def test_verify_pell_bad_range_exit_2(capsys):
    assert run(["verify", "pell", "--ell-range", "9..6"]) == 2
    assert run(["verify", "pell", "--ell-range", "abc"]) == 2


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
    # the error line names the option and Python's limit on int conversion
    # and echoes no digits (it said '--class expects integers like "x,y,z"',
    # and argparse echoed all 4,401 digits of --ell)
    code, out, err = _call(argv, capsys)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        "error: argument %s: 4401 digits exceed Python's 4300-digit limit "
        "on int conversion" % name.split()[-1])
    assert len(err) < 500


def test_malformed_integer_messages_are_kept(capsys):
    # a value that is not an integer keeps its message; a long one within
    # the digit limit is not mistaken for an oversized integer
    for argv, line in (
            (["verify", "pell", "--ell", "abc"],
             "error: argument --ell: invalid int value: 'abc'"),
            (["reduce", "--class", "x,y"],
             'error: argument --class: expects integers like "x,y,z"'),
            (["reduce", "--class", "%s,%s,x" % ("1" * 3000, "1" * 3000)],
             'error: argument --class: expects integers like "x,y,z"'),
            (["verify", "pell", "--ell-range", "abc"],
             "error: argument --ell-range: expects A..B with integers")):
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
        assert run(argv) == 2, argv
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
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


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


def _argparse_tree():
    """The oracle of cli.parse: the argparse tree of cli.COMMANDS, whose
    options carry add_argument's own keyword arguments."""
    tree = argparse.ArgumentParser(prog="k3cert")
    sub = tree.add_subparsers(dest="command", required=True)
    for name, (summary, run, positional, options) in cli.COMMANDS.items():
        parser = sub.add_parser(name, help=summary)
        parser.set_defaults(run=run)
        if positional is not None:
            parser.add_argument(positional[0], choices=positional[1])
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
    return tree.parse_args


def _before_separator(argv):
    """The tokens of argv before its first "--"."""
    return argv[:argv.index("--")] if "--" in argv else argv


def _argparse_parse(argv, parse_args=_argparse_tree()):
    args = parse_args(argv)
    # k3cert refuses "--" as any value; argparse (3.11) reads it after "="
    # as [], which a later repeat of the option overrides
    if any(t.startswith("-") and t.endswith("=--")
           for t in _before_separator(argv)):
        raise cli.UsageError("expected one argument")
    return args


def _outcome(parse, argv):
    """What parse makes of argv: "usage" (main exits 2), "help" (main
    prints it and exits 0), or the namespace's values, which main runs."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        except cli.UsageError:
            return "usage"
        except SystemExit as exc:
            return "usage" if exc.code else "help"
    return "help" if args is None else vars(args)


def _dash_value(argv):
    """Whether a token of argv that starts with "-" and has no "=" is
    followed, before any "--", by one that starts with "-" and is no
    negative number: k3cert reads it as a value, argparse as an option."""
    head = _before_separator(argv)
    return any(a.startswith("-") and "=" not in a and b.startswith("-")
               and not b[1:].isdigit() for a, b in zip(head[1:], head[2:]))


def _assert_parse_matches_argparse(argv):
    """cli.parse and the argparse oracle give argv one outcome: one exit
    code, and one namespace wherever both accept it, but for the two
    deliberate divergences (help and usage text are k3cert's own):
    - a space-form value that starts with "-" and is no negative number
      (``reduce --class -3,-3,-3``) is a value, as after "=", where
      argparse reads an option;
    - -h prints the help as soon as it is read, where argparse first
      refuses an ambiguous prefix anywhere in argv, or a negative number
      in the positional's place."""
    got, want = _outcome(cli.parse, argv), _outcome(_argparse_parse, argv)
    if got != want:
        assert _dash_value(argv) or (
            (got, want) == ("help", "usage")
            and {"-h", "--help"} & set(argv)), (argv, got, want)
    return got


# fixed argv for the comparison with argparse: no command, help, "--", an
# unknown command, a subcommand's own usage errors and leftovers, valid
# calls in both option forms, abbreviations, a repeat, a negative value
# after a space, and a command's own range check
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
    ["verify", "--", "pell"], ["verify", "pell", "--el", "7"],
    ["verify", "pell", "--ell-r", "6..7", "--k=2"], ["orbit", "--len", "-0"],
    ["reduce", "--class", "-3,-3,-3"], ["verify", "-h", "--e"],
]


@pytest.mark.parametrize("argv", ARGV_CORPUS,
                         ids=lambda argv: " ".join(argv) or "(empty)")
def test_one_pass_dispatch_matches_the_full_tree(argv):
    # the one-pass parse against argparse's full tree, on fixed argv
    _assert_parse_matches_argparse(argv)


@pytest.mark.parametrize("argv, flag", [
    (["reduce", "--class=--"], "--class"), (["orbit", "--len=--"], "--len"),
    (["reduce", "--class=1,0,0", "--json=--"], "--json")])
def test_dashdash_after_equals_is_a_usage_error(argv, flag, tmp_path, capsys,
                                                monkeypatch):
    # "--" is no value, after "=" as after a space: exit 2 below the
    # subcommand's usage line, and no file written
    monkeypatch.chdir(tmp_path)
    code, out, err = _call(argv, capsys)
    assert code == 2 and out == ""
    *usage, error = err.splitlines()
    assert usage[0].startswith("usage: k3cert %s " % argv[0])
    assert error == "error: argument %s: expected one argument" % flag
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("json_args", [["--json", ""], ["--json="]],
                         ids=["space", "equals"])
def test_empty_json_path_exit_2(json_args, tmp_path, capsys, monkeypatch):
    # an empty PATH is a path that cannot be written, not a missing option
    monkeypatch.chdir(tmp_path)
    code, out, err = _call(["reduce", "--class", "13,-14,6"] + json_args,
                           capsys)
    assert (code, out) == (2, "")
    assert err == "error: cannot write --json : No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


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


def _disk_full_on_write(monkeypatch):
    """open() as main sees it, with every write-mode file on a full disk."""
    def full_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if mode == "w":
            def write(text):
                raise OSError(28, "No space left on device")
            fh.write = write
        return fh
    monkeypatch.setattr(cli, "open", full_open, raising=False)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_json_write_exit_2(existing, tmp_path, capsys, monkeypatch):
    # the up-front open succeeds and the final write fails: the report is
    # printed, then one stderr line and exit 2, and a file that main
    # created is removed
    path = tmp_path / "report.json"
    if existing:
        path.write_text("")
    _disk_full_on_write(monkeypatch)
    code, out, err = _call(["reduce", "--class", "13,-14,6", "--json",
                            str(path)], capsys)
    assert code == 2 and "reduced to" in out
    assert err == ("error: cannot write --json %s: No space left on device\n"
                   % path)
    assert path.exists() == existing


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_json_to_dev_full_exit_2(capsys):
    code, out, err = _call(["reduce", "--class", "13,-14,6", "--json",
                            "/dev/full"], capsys)
    assert code == 2 and "reduced to" in out
    assert err == ("error: cannot write --json /dev/full: No space left on "
                   "device\n")


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


# the parse against argparse: a token alphabet of every option name and
# its prefixes, both option forms, values with and without a leading "-",
# choices inside and outside the allowed sets, an integer past the digit
# limit, "--" and -h
_FLAGS = sorted({flag for _, _, _, options in cli.COMMANDS.values()
                 for flag, _ in options})
_PREFIXES = sorted({flag[:k] for flag in _FLAGS for k in range(3, len(flag))}
                   - set(_FLAGS))
_CHOICES = sorted({c for _, _, positional, options in cli.COMMANDS.values()
                   for c in ((positional[1] if positional else [])
                             + [c for _, kw in options
                                for c in kw.get("choices", [])])})
_VALUES = ["0", "2", "7", "12", "-0", "-5", "+3", "1_0", "0x2", "abc", "",
           "1" * 4401, "13,-14,6", "-3,-3,-3", "2,-1,-1", "x,y", "6..8",
           "9..6", "-", "--", "-h", "out.json", "HLM,", "nothing"]
# a leading "--" is left to ARGV_CORPUS: argparse 3.11 refuses it as the
# command, as k3cert does, and later versions may skip it
_NAMES = list(cli.COMMANDS) + ["frobnicate", "-h", "--help", ""]
_tokens = st.one_of(
    st.sampled_from(_FLAGS + _PREFIXES + ["-h", "--help", "--", "-x"]),
    st.builds("{}={}".format, st.sampled_from(_FLAGS + _PREFIXES),
              st.sampled_from(_VALUES + _CHOICES)),
    st.sampled_from(_VALUES + _CHOICES))


@st.composite
def _canonical(draw):
    """An argv of one subcommand's own options and positional, each form
    and value drawn so that most are canonical and some are not."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, positional, options = cli.COMMANDS[name]
    tokens = []
    if positional is not None and draw(st.integers(0, 9)):
        tokens.append([draw(st.sampled_from(positional[1] + ["nothing"]))])
    for flag, kwargs in options:
        if not kwargs.get("required") and draw(st.booleans()):
            continue
        value = draw(st.sampled_from(kwargs.get("choices", _VALUES)))
        tokens.append(["%s=%s" % (flag, value)] if draw(st.booleans())
                      else [flag, value])
    order = draw(st.permutations(tokens))
    return [name] + [t for group in order for t in group]


_argv = st.one_of(
    _canonical(),
    st.builds(lambda head, rest: [head] + rest, st.sampled_from(_NAMES),
              st.lists(_tokens, max_size=6)))


@settings(max_examples=400, deadline=None)
@given(_argv)
def test_direct_parse_against_argparse(argv):
    # every drawn argv gets one outcome from cli.parse and from argparse:
    # main's exit code follows from it, as main runs the namespace it gets
    _assert_parse_matches_argparse(argv)


def _assert_direct(argv):
    assert isinstance(_assert_parse_matches_argparse(argv), dict), argv


@pytest.mark.parametrize("argv", [
    ["reduce", "--class=13,-14,6"], ["reduce", "--class=-1,1,0"],
    ["orbit", "--len", "7"], ["enumerate", "sections", "--n-bound", "3"],
    ["enumerate", "q"], ["verify", "all", "--json", "/tmp/x/report.json"],
    ["verify", "pell", "--ell", "93"]])
def test_direct_parse_takes_the_workload_argv(argv):
    # each argv shape of the benchmark's workloads parses, to argparse's
    # namespace
    _assert_direct(argv)


def _workload_argv(json_path):
    """Every argv of the benchmark workloads' seed-1 rounds, as generated."""
    workloads = runpy.run_path(
        str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))
    return [query.argv for name in workloads["WORKLOADS"]
            for query in workloads["generate"](name, 1, json_path=json_path)]


def test_direct_parse_takes_every_workload_argv():
    # so does every argv of the workloads' seed-1 rounds, and none builds
    # the help and usage text
    cli.build_parser.cache_clear()
    for argv in _workload_argv("/tmp/x/report.json"):
        _assert_direct(argv)
    assert cli.build_parser.cache_info().currsize == 0


_USAGE = "usage: k3cert [-h] {verify,enumerate,reduce,orbit} ...\n"
_VERIFY = ("usage: k3cert verify [-h] [--ell N] [--ell-range A..B] "
           "[--entry-bound E]\n" + " " * 21 + "[--k-bound K] [--json PATH] "
           "{all,quartic,pell,weierstrass}\n")


@pytest.mark.parametrize("argv, code, out, err", [
    # an abbreviation: parsed, with no text built
    (["reduce", "--cl=13,-14,6"], 0,
     "[PASS] reduce reduced to (1, 0, 0) via wall word [1] (basis HLM)\n"
     "1 pass, 0 fail, 0 discrepancy, 0 skipped\n", ""),
    # help
    (["-h"], 0, _USAGE + "\nexact verification suite for the quartic and "
     "Pell lattice computations\n", ""),
    # usage errors: parsed, then refused by the command, or refused by the
    # type of --class
    (["orbit", "--len", "99"], 2, "",
     "usage: k3cert orbit [-h] --len K [--json PATH]\n"
     "error: --len must be between 0 and 12\n"),
    (["reduce", "--class", "x,y"], 2, "",
     'usage: k3cert reduce [-h] --class "x,y,z" [--basis {HLM,fev}] '
     '[--json PATH]\nerror: argument --class: expects integers like '
     '"x,y,z"\n'),
    (["verify", "pell", "--ell", "5"], 2, "",
     _VERIFY + "error: --ell must exceed 5\n"),
], ids=["declined", "help", "orbit range", "class", "ell"])
def test_argparse_argv_builds_the_tree_once(argv, code, out, err, capsys):
    # help and usage lines are written from COMMANDS once a process, only
    # when one is printed, and a second call prints the same; the help
    # text below the description is compared whole by the CLI corpus
    cli.build_parser.cache_clear()
    got = _call(argv, capsys)
    assert got[0] == code and got[2] == err
    assert got[1].startswith(out) if argv == ["-h"] else got[1] == out
    assert _call(argv, capsys) == got
    assert cli.build_parser.cache_info().misses == ("usage:" in got[1] + err)


_BASES = {"verify": ["verify", "pell", "--ell=3"],
          "enumerate": ["enumerate", "sections", "--n-bound=0"],
          "reduce": ["reduce", "--class=0,0,0"],
          "orbit": ["orbit", "--len=99"]}


@pytest.mark.parametrize("name, flag", [
    (name, flag) for name, command in cli.COMMANDS.items()
    for flag, _ in command[3]])
@pytest.mark.parametrize("value", ["7", "-5", "-0", "-3,-3,-3", "-h", "--"])
def test_space_and_equals_forms_agree(name, flag, value, tmp_path, capsys,
                                      monkeypatch):
    # "--opt V" gives what "--opt=V" gives, V with a leading "-" included
    # (reduce --class -3,-3,-3 reaches the cone check); each base argv is
    # refused unless the option overrides its value, so most calls run no
    # suite
    monkeypatch.chdir(tmp_path)
    base = _BASES[name]
    assert (_call(base + [flag, value], capsys)
            == _call(base + ["%s=%s" % (flag, value)], capsys))


@pytest.mark.parametrize("name", [None] + list(cli.COMMANDS))
def test_help_names_every_option_and_choice(name, capsys):
    # k3cert -h names every subcommand, and each subcommand's -h every
    # option and every choice of its positional and its options
    if name is None:
        argv, names = ["-h"], list(cli.COMMANDS)
    else:
        _, _, positional, options = cli.COMMANDS[name]
        argv = [name, "-h"]
        names = ([flag for flag, _ in options]
                 + (positional[1] if positional else [])
                 + [c for _, kw in options for c in kw.get("choices", [])])
    code, out, err = _call(argv, capsys)
    assert (code, err) == (0, "")
    assert set(names) <= set(re.findall(r"[\w-]+", out))
