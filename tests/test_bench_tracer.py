"""The benchmark tracer wraps k3cert names from outside (bench/tracer.py).

A rename or deletion of a traced name, or of a parameter a tracer hook
reads, breaks the traced benchmark runs; this test breaks with them.  It
runs in a fresh interpreter, so a failed install leaves no wrappers behind
in the test process.  It only reads bench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, importlib.util, io, json, sys

spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

from k3cert import cli, isometry

original = isometry.order_of
tracer = tracing.Tracer()
restore = tracing.install(tracer)
wrapped = isometry.order_of is not original
try:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["verify", "quartic"]),
                 cli.main(["verify", "pell", "--ell", "6", "--k-bound", "1"]),
                 cli.main(["reduce", "--class", "13,-14,6"]),
                 cli.main(["orbit", "--len", "3"]),
                 cli.main(["enumerate", "sections", "--n-bound", "2"])]
finally:
    restore()
print(json.dumps({
    "codes": codes,
    "wrapped": wrapped,
    "restored": isometry.order_of is original,
    "calls": {name: calls for name, (calls, _) in tracer.rollup().items()},
    "counters": tracer.counters,
}))
"""


def test_tracer_installs_on_the_cli_and_restores():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench" / "tracer.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * 5
    assert out["wrapped"] and out["restored"]
    calls = out["calls"]
    for name in ("cli.main", "quadfield.QuadExt.arith", "isometry.order_of",
                 "isometry.compose", "lattice.discriminant_group",
                 "pell.isometry_search", "report.timed_item",
                 "chamber.reduce_to_chamber",
                 "chamber.orbit_of_anchor", "quartic.enumerate_sections"):
        assert calls.get(name, 0) > 0, name
    # the five argv take the direct parse: no argparse tree is built
    assert calls["cli.main"] == 5
    assert "cli.build_parser" not in calls
    # the reduce hook reads result.word: 13,-14,6 reduces in one step, and
    # lemma 3.10 of verify quartic reduces more classes
    assert out["counters"]["chamber.reduce_steps"] > 1
    # the search hook binds isometry_search's entry_bound
    assert out["counters"]["pell.search.raw_isometries"] > 0
    assert out["counters"]["pell.search.bound_used_max"] >= 300
