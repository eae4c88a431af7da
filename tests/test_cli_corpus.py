"""Replay the CLI output corpus (tests/reference/cli-corpus.json).

The corpus holds, for a fixed list of argv, the exit code, stdout, stderr
and --json report of ``cli.main``, recorded by ``tools/cli_corpus.py``,
which this test also uses to run each argv the same way.  A change that
alters an output on purpose re-records the corpus with that script.  Every
entry, help and usage text included, is k3cert's own output and replays on
every Python version.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "cli_corpus", ROOT / "tools" / "cli_corpus.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _shows_usage(entry):
    return "usage:" in entry["stdout"] or "usage:" in entry["stderr"]


def _changed(tool, entries):
    return [(" ".join(e["argv"]), got) for e in entries
            for got in [tool.record(e["argv"])] if got != e]


def test_cli_corpus_replays():
    # the entries without a usage line
    tool = _tool()
    stored = tool.load()["entries"]
    # the script's list is the corpus: an argv added there is recorded too
    assert [e["argv"] for e in stored] == tool.ARGV
    assert _changed(tool, [e for e in stored if not _shows_usage(e)]) == []


def test_cli_corpus_usage_entries_replay():
    # the entries with a usage line (help and usage errors), which k3cert
    # prints itself and so replay on every Python version too
    tool = _tool()
    usage = [e for e in tool.load()["entries"] if _shows_usage(e)]
    assert usage
    assert _changed(tool, usage) == []
