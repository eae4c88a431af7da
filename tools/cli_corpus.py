"""Record the CLI output corpus: tests/reference/cli-corpus.json.

    python3 tools/cli_corpus.py

For each argv of ``ARGV`` the corpus holds what ``k3cert.cli.main`` gives
in-process: the exit code (``SystemExit`` included), stdout, stderr and the
report that ``--json {tmp}/r.json`` wrote, if the command left one.  A
report is stored minus its ``elapsed_ms`` fields, the one part of the output
that is not deterministic.  An output longer than ``LONG`` characters is
stored as ``"sha256:<hex>"``.  Each argv runs in a new temporary
directory; ``{tmp}`` in an argv stands for it, and the directory's path is
written back as ``{tmp}`` in the outputs.  ``{oversized}`` stands for an
integer of 4,401 digits, past Python's 4,300-digit limit on int conversion.
argparse wraps its help and usage lines to the terminal width, so every argv
runs with ``COLUMNS`` set to ``COLUMNS``.  argparse's wording and its "--"
handling also differ between Python versions, so the corpus records the
version (major, minor) it was recorded on.

``tests/test_cli_corpus.py`` replays the corpus in tier-1.  A change that
alters an output on purpose re-records the corpus and names each changed
argv.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "tests", "reference", "cli-corpus.json")
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from k3cert import cli  # noqa: E402

LONG = 1000
COLUMNS = "80"
PLACEHOLDERS = {"{oversized}": "1" * 4401}

_MAX_ELL_1 = str(cli.MAX_ELL + 1)
_MAX_ENTRY_1 = str(cli.MAX_ENTRY_BOUND + 1)

# every subcommand and option in the --opt=v and --opt v forms, the help
# requests, abbreviations, repeats, "--" (as a token and as a value after
# "="), negative values in the space form, and every exit-2 path:
# argparse's usage errors, the caps, the digit limit and the --json path
# checks
ARGV = [
    # the top level
    [], ["-h"], ["--help"], ["--"], ["--", "reduce"], ["-h", "reduce"],
    ["frobnicate"], ["frobnicate", "--class=1,0,0"], ["--class=1,0,0"],
    ["--json", "{tmp}/r.json", "reduce", "--class=1,0,0"],
    # verify
    ["verify"], ["verify", "-h"], ["verify", "--help"], ["verify", "nothing"],
    ["verify", "pell", "quartic"], ["verify", "all"],
    ["verify", "all", "--json", "{tmp}/r.json"],
    ["verify", "all", "--json={tmp}/r.json"],
    ["verify", "quartic"], ["verify", "quartic", "--json", "{tmp}/r.json"],
    ["verify", "weierstrass"], ["verify", "pell"],
    ["verify", "pell", "--ell", "7"], ["verify", "pell", "--ell=7"],
    ["verify", "--ell", "7", "pell"], ["verify", "pell", "--ell", "93"],
    ["verify", "pell", "--ell", "10000000000000000000001", "--k-bound", "0"],
    ["verify", "pell", "--ell-range", "6..8"],
    ["verify", "pell", "--ell-range=6..8"],
    ["verify", "pell", "--ell", "6", "--entry-bound", "100"],
    ["verify", "pell", "--ell", "6", "--entry-bound=100"],
    ["verify", "pell", "--ell", "6", "--k-bound", "2"],
    ["verify", "pell", "--ell", "6", "--k-bound=0"],
    ["verify", "pell", "--ell=6", "--k-bound=1", "--entry-bound=50",
     "--json={tmp}/r.json"],
    ["verify", "pell", "--ell", "6", "--json", "{tmp}/r.json"],
    ["verify", "pell", "--el", "7"], ["verify", "pell", "--ell-r", "6..7"],
    ["verify", "pell", "--ell", "6", "--entry", "100"],
    ["verify", "pell", "--ell", "6", "--k=2"],
    ["verify", "pell", "--ell", "6", "--js", "{tmp}/r.json"],
    ["verify", "pell", "--ell", "7", "--ell", "6"],
    ["verify", "pell", "--ell=6", "--k-bound=1", "--k-bound", "2"],
    ["verify", "--", "pell"], ["verify", "pell", "--", "--ell", "7"],
    ["verify", "pell", "--ell"], ["verify", "pell", "--ell="],
    ["verify", "pell", "--ell", "abc"], ["verify", "pell", "--ell", "-7"],
    ["verify", "pell", "--ell", "5"], ["verify", "pell", "--ell", _MAX_ELL_1],
    ["verify", "pell", "--ell", "6", "--ell-range", "6..8"],
    ["verify", "pell", "--ell-range", "5..7"],
    ["verify", "pell", "--ell-range", "9..6"],
    ["verify", "pell", "--ell-range", "abc"],
    ["verify", "pell", "--ell-range", "6..%d" % (6 + cli.MAX_ELL_COUNT)],
    ["verify", "pell", "--ell-range", "6..%s" % _MAX_ELL_1],
    ["verify", "pell", "--ell", "6", "--entry-bound", "0"],
    ["verify", "pell", "--ell", "6", "--entry-bound", _MAX_ENTRY_1],
    ["verify", "all", "--entry-bound=" + _MAX_ENTRY_1],
    ["verify", "pell", "--ell", "6", "--k-bound", "-1"],
    ["verify", "pell", "--ell", "6", "--k-bound=-1"],
    ["verify", "pell", "--ell", "6", "--k-bound", str(cli.MAX_K_BOUND + 1)],
    ["verify", "pell", "--ell", "{oversized}"],
    ["verify", "pell", "--ell-range", "6..{oversized}"],
    ["verify", "pell", "--entry-bound", "{oversized}"],
    ["verify", "pell", "--k-bound={oversized}"],
    ["verify", "pell", "--ell", "6", "--json", "{tmp}/missing/x.json"],
    ["verify", "pell", "--ell", "6", "--json", "{tmp}"],
    ["verify", "pell", "--ell", "3", "--json", "{tmp}/r.json"],
    ["verify", "pell", "--ell", "6", "--frob"],
    # enumerate
    ["enumerate"], ["enumerate", "-h"], ["enumerate", "q", "-h"],
    ["enumerate", "nothing"], ["enumerate", "q"],
    ["enumerate", "q", "--json", "{tmp}/r.json"], ["enumerate", "sections"],
    ["enumerate", "sections", "--n-bound", "2"],
    ["enumerate", "sections", "--n-bound=1"],
    ["enumerate", "--n-bound", "2", "sections"],
    ["enumerate", "sections", "--n-bound", "2", "--json={tmp}/r.json"],
    ["enumerate", "sections", "--n", "2"],
    ["enumerate", "sections", "--n-bound", "1", "--n-bound", "2"],
    ["enumerate", "sections", "--n-bound", "1", "q"],
    ["enumerate", "sections", "--n-bound", "0"],
    ["enumerate", "sections", "--n-bound", "-2"],
    ["enumerate", "sections", "--n-bound", str(cli.MAX_N_BOUND + 1)],
    ["enumerate", "sections", "--n-bound", "{oversized}"],
    ["enumerate", "q", "--json", "{tmp}/missing/x.json"],
    # reduce
    ["reduce"], ["reduce", "-h"], ["reduce", "--class"], ["reduce", "--class="],
    ["reduce", "--class=--"], ["reduce", "--class=1,0,0", "--json=--"],
    ["reduce", "--class=2,-1,-1"], ["reduce", "--class", "13,-14,6"],
    ["reduce", "--class", " 13, -14, 6 "],
    ["reduce", "--class", "4,3,1", "--basis", "fev"],
    ["reduce", "--class=4,3,1", "--basis=fev"],
    ["reduce", "--basis", "HLM", "--class", "13,-14,6"],
    ["reduce", "--class", "2981,-3010,90"],
    ["reduce", "--class", "2981,90,-3010"],
    ["reduce", "--class", "29998001,-30001000,9000"],
    ["reduce", "--class=29998001,9000,-30001000"],
    ["reduce", "--cl=13,-14,6"], ["reduce", "--class", "13,-14,6", "--bas",
                                  "fev"],
    ["reduce", "--class", "1,0,0", "--class", "13,-14,6"],
    ["reduce", "--class", "13,-14,6", "--basis", "fev", "--basis", "HLM"],
    ["reduce", "--class", "-3,-3,-3"], ["reduce", "--class=-3,-3,-3"],
    ["reduce", "--class", "0,0,1"], ["reduce", "--class", "0,0,0"],
    ["reduce", "--class=-1,1,0", "--basis", "fev"],
    ["reduce", "--class", "x,y"], ["reduce", "--class", "1,2"],
    ["reduce", "--class", "1,2,3,4"],
    ["reduce", "--class", "13,-14,6", "--basis", "xyz"],
    ["reduce", "--class", "13,-14,6", "--basis", "fev,"],
    ["reduce", "--class", "13,-14,6", "extra"],
    ["reduce", "--", "--class", "1,0,0"],
    ["reduce", "--class=1,0,0", "--frob"], ["reduce", "--class=1,0,0", "-x"],
    ["reduce", "--class={oversized},0,0"],
    ["reduce", "--class", "1,0,-{oversized}"],
    ["reduce", "--class", "13,-14,6", "--json", "{tmp}/r.json"],
    ["reduce", "--json={tmp}/r.json", "--class=13,-14,6"],
    ["reduce", "--class=-3,-3,-3", "--json", "{tmp}/r.json"],
    ["reduce", "--class", "2,-1,-1", "--json", "{tmp}/missing/x.json"],
    ["reduce", "--class", "2,-1,-1", "--json", "{tmp}"],
    ["reduce", "--class", "13,-14,6", "--json", ""],
    ["reduce", "--class", "13,-14,6", "--json="],
    # orbit
    ["orbit"], ["orbit", "-h"], ["orbit", "--help"],
    ["orbit", "--len", "0"], ["orbit", "--len", "1"], ["orbit", "--len", "2"],
    ["orbit", "--len", "3"], ["orbit", "--len", "4"], ["orbit", "--len", "5"],
    ["orbit", "--len", "6"], ["orbit", "--len=3"], ["orbit", "--len", "-5"],
    ["orbit", "--len=-5"], ["orbit", "--len", "-0"], ["orbit", "--len", "+2"],
    ["orbit", "--len", "0x2"], ["orbit", "--len", "1_0"],
    ["orbit", "--len", str(cli.MAX_ORBIT_LEN + 1)], ["orbit", "--len", "two"],
    ["orbit", "--len", "1", "--len", "2"], ["orbit", "--le", "2"],
    ["orbit", "--len", "2", "3"], ["orbit", "--len", "{oversized}"],
    ["orbit", "--len=--"],
    ["orbit", "--len", "2", "--json", "{tmp}/r.json"],
    ["orbit", "--len", "99", "--json", "{tmp}/r.json"],
]


def _long(text):
    if len(text) > LONG:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return text


def _report(path):
    """The report at path minus its elapsed_ms fields, or None when the
    command left no file there."""
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        report = json.load(fh)
    for item in report["items"]:
        del item["elapsed_ms"]
    return _long(json.dumps(report, sort_keys=True, indent=2))


def record(template):
    """The corpus entry of one argv template: cli.main's exit code, stdout,
    stderr and --json report."""
    old_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    try:
        with tempfile.TemporaryDirectory() as tmp:
            subs = dict(PLACEHOLDERS, **{"{tmp}": tmp})
            argv = []
            for token in template:
                for key, value in subs.items():
                    token = token.replace(key, value)
                argv.append(token)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            report = _report(os.path.join(tmp, "r.json"))
            return {"argv": template, "code": code,
                    "stdout": _long(out.getvalue().replace(tmp, "{tmp}")),
                    "stderr": _long(err.getvalue().replace(tmp, "{tmp}")),
                    "json": report}
    finally:
        if old_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old_columns


def load():
    with open(CORPUS) as fh:
        return json.load(fh)


def main():
    corpus = {"python": list(sys.version_info[:2]),
              "entries": [record(template) for template in ARGV]}
    with open(CORPUS, "w") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
