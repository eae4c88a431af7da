"""Self-tests of the benchmark: smoke runs, metric names and the gate.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402
import workloads  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_declared_metrics(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in spec()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("chamber-walk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generators_are_seeded():
    for w in workloads.WORKLOADS:
        a = [q.argv for q in workloads.generate(w, 3, json_path="r.json")]
        b = [q.argv for q in workloads.generate(w, 3, json_path="r.json")]
        assert a == b
    a = [q.argv for q in workloads.generate("chamber-walk", 3)]
    b = [q.argv for q in workloads.generate("chamber-walk", 4)]
    assert a != b


def test_expected_answers_follow_the_closed_forms():
    assert [workloads.orbit_size(k) for k in range(4)] == [1, 4, 10, 22]
    for k in range(5):
        assert len(workloads.orbit_classes(k)) == workloads.orbit_size(k)
    assert [s[0] for s in workloads.section_classes(2)] == [39, 9, -1, 9, 39]


def _cli_answers(queries):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from k3cert import cli
    out = []
    for q in queries:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(q.argv)
        out.append((rc, buf.getvalue()))
    return out


def _corrupt(q):
    if q.kind == "reduce":
        p, word = q.expected
        return (tuple(c + 1 for c in p), word)
    if q.kind == "orbit":
        return q.expected + 1
    if q.kind == "q":
        return {**q.expected, (1, 0, 0): "hyperelliptic"}
    if q.kind == "sections":
        return q.expected[1:]
    return q.expected + 1   # pell: the items name another ell


def test_gate_trips_on_a_corrupted_expected_answer():
    queries = (workloads.generate("chamber-walk", 5, smoke=True)
               + workloads.generate("pell-sweep", 5, smoke=True)[:1])
    assert {q.kind for q in queries} == {"reduce", "orbit", "q", "sections",
                                          "pell"}
    for q, (rc, out) in zip(queries, _cli_answers(queries)):
        assert workloads.check(q, rc, out) is None, q.argv
        assert workloads.check(q, 1, out) is not None, q.argv
        q.expected = _corrupt(q)
        assert workloads.check(q, rc, out) is not None, q.argv


def test_gate_trips_on_a_changed_certificate(tmp_path):
    with open(os.path.join(BENCH, "reference", "certificate.json")) as fh:
        reference = json.load(fh)
    report = dict(reference, items=[dict(it, elapsed_ms=5)
                                    for it in reference["items"]])
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    (q,) = workloads.generate("certificate", 1, json_path=str(path))
    assert workloads.check(q, 0, "", reference) is None
    changed = json.loads(json.dumps(reference))
    changed["items"][0]["status"] = "fail"
    assert workloads.check(q, 0, "", changed) is not None


def test_importtime_breakdown():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | fractions",
        "import time:       200 |        300 |   k3cert.lattice",
        "import time:        50 |        450 | k3cert",
        "import time:      1000 |       4000 |     sympy",
        "import time:        30 |       5000 |   k3cert.quartic",
        "import time:        20 |       5500 | k3cert.cli",
    ])
    assert run.parse_importtime(stderr) == pytest.approx((0.004, 0.00195))


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(100, 0, -1))) == (90, 90.0, 100)
    assert run.tail([2.0, 1.0, 3.0]) == (2.0, 50.0, 3)
