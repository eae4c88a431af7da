"""k3cert benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload certificate|pell-sweep|chamber-walk \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Every round starts a fresh interpreter
(``bench/worker.py``) that imports ``k3cert.cli`` from ``src/`` and sends the
workload's invocations to ``k3cert.cli.main`` one after another, so the
import is counted and each call waits for the previous one.  Rounds run one
at a time until ``--seconds`` is used up, with a minimum per workload.

``--trace 0`` prints the end-to-end metrics: the set-up time and memory as
measured, and the round and call times in units of a reference loop timed
around each round (``reference_loop``), with the times in seconds beside them;
``--trace 1`` prints the per-layer metrics from two traced rounds, the
import breakdown from ``python -X importtime`` and the tracing overhead.
Every answer is checked; the last line of stdout is one JSON object and the
exit code is 0 only when every answer was right.  ``--smoke`` runs a tiny
size of the workload once, for the benchmark's own tests.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT_DIR = os.path.join(BENCH, ".work")
DEADLINE_S = 170

sys.path.insert(0, BENCH)
import tracer  # noqa: E402
import workloads  # noqa: E402

# Other load on a shared machine changes the speed of the whole machine, up
# to nearly twice, in stretches of seconds to minutes: two runs of the same
# code a minute apart differed by half.  Round and call times are therefore
# reported in units of ``reference_loop``, timed in this process just before
# and just after each round (the seconds are printed beside them): a fixed
# pure-Python loop slows with the machine but not with the program.  Every
# run reports medians over all its rounds.
# The tail percentile is taken over the calls of each group of
# TAIL_ROUNDS consecutive rounds, so every run of a workload computes the
# same percentile however many rounds fit, and the median over the groups
# is reported.  TAIL_ROUNDS is also the minimum number of rounds.
TAIL_ROUNDS = 3
REF_PIECES = 3    # reference loops before and after each round
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
TRACED_ROUNDS = 2
# counters reported as they are; all must repeat exactly between rounds
COUNTS = ("lattice.disc_elements_scanned", "chamber.reduce_steps",
          "pell.search.bound_used_max", "pell.search.escalations",
          "pell.search.raw_isometries")
DETERMINISTIC = COUNTS + ("pell.search.accepted",)


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + DEADLINE_S
        self.errors = []

    def spawn(self, mode, trace=False, flags=()):
        argv = [sys.executable, *flags, WORKER, mode]
        if mode == "round":
            a = self.args
            argv += [a.workload, str(a.seed), "1" if a.smoke else "0",
                     "1" if trace else "0", OUT_DIR]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            raise BenchError("a round did not finish within %d s" % DEADLINE_S)
        done = time.perf_counter()
        if proc.returncode != 0:
            raise BenchError("worker exited %d: %s"
                             % (proc.returncode, proc.stderr.strip()[-2000:]))
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["setup_s"] = res["setup_end"] - t0
        res["round_s"] = done - t0
        res["stderr"] = proc.stderr
        self.errors += res.get("errors", [])
        return res

    def untraced(self):
        a = self.args
        probes = 1 if a.smoke else SETUP_PROBES
        min_rounds = 1 if a.smoke else TAIL_ROUNDS
        if not a.smoke:
            self.spawn("probe")   # warm the file cache and bytecode; discarded
        start = time.perf_counter()
        setup = [self.spawn("probe")["setup_s"] for _ in range(probes)]
        rounds = []
        while len(rounds) < min_rounds or (
                not a.smoke and time.perf_counter() - start
                + statistics.median(r["round_s"] for r in rounds) <= a.seconds):
            ref = [reference_loop() for _ in range(REF_PIECES)]
            rounds.append(self.spawn("round"))
            ref += [reference_loop() for _ in range(REF_PIECES)]
            rounds[-1]["ref_s"] = statistics.median(ref)
            setup.append(rounds[-1]["setup_s"])
        return setup, rounds

    def traced(self):
        a = self.args
        imports = [parse_importtime(self.spawn("probe", flags=("-X", "importtime"))
                                    ["stderr"])
                   for _ in range(1 if a.smoke else IMPORTTIME_PROBES)]
        plain = self.spawn("round")
        traced = [self.spawn("round", trace=True) for _ in range(TRACED_ROUNDS)]
        for name in DETERMINISTIC:
            values = {r["counters"][name] for r in traced}
            if len(values) != 1:
                self.errors.append("counter %s differs between traced rounds: "
                                   "%s" % (name, sorted(values)))
        return imports, plain, traced


def reference_loop():
    """Wall time of a fixed pure-Python loop of the kinds of work k3cert
    does (integer arithmetic, Fractions, tuples, dicts, calls), about 15 ms
    on a 2.1 GHz Xeon.  It runs in the benchmark's own process, which never
    imports k3cert, so a change to the program cannot change it."""
    def step(v, k):
        return tuple((x * k + 1) % 1009 for x in v)
    t0 = time.perf_counter()
    seen = {}
    v = (1, 2, 3)
    q = Fraction(0)
    for i in range(3000):
        v = step(v, i % 7 + 2)
        seen[v] = seen.get(v, 0) + 1
        q += Fraction(v[0] - v[1], v[2] + 1)
    if not seen or q.denominator < 1:
        raise BenchError("the reference loop computed nothing")
    return time.perf_counter() - t0


def parse_importtime(stderr):
    """sympy's cumulative import time, and the rest of ``import k3cert.cli``
    (the top-level ``k3cert`` entries minus sympy), in seconds."""
    sympy_us = k3cert_us = 0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)$", line)
        if not m:
            continue
        cum, depth, name = int(m.group(1)), len(m.group(2)), m.group(3)
        if name == "sympy":
            sympy_us = cum
        elif depth == 0 and (name == "k3cert" or name.startswith("k3cert.")):
            k3cert_us += cum
    if not sympy_us or not k3cert_us:
        raise BenchError("no k3cert/sympy entries in the -X importtime output")
    return sympy_us / 1e6, (k3cert_us - sympy_us) / 1e6


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it,
    as (value, percentile, samples).  With fewer than 11 samples no such
    percentile exists, and the median stands in for it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return statistics.median(xs), 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def group_tail(rounds, scale):
    """The tail of the calls of each group of TAIL_ROUNDS consecutive rounds,
    each call's latency divided by scale(round); the median over the groups,
    with the percentile, the calls per group and the number of groups."""
    groups = [rounds[i:i + TAIL_ROUNDS] for i in
              range(0, len(rounds) - TAIL_ROUNDS + 1, TAIL_ROUNDS)] or [rounds]
    tails = [tail([x / scale(r) for r in g for x in r["latency_s"]])
             for g in groups]
    return (statistics.median(t[0] for t in tails), tails[0][1], tails[0][2],
            len(groups))


def end_to_end(runner):
    setup, rounds = runner.untraced()
    ref_tail, pct, n, groups = group_tail(rounds, lambda r: r["ref_s"])
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (statistics.median(r["wall_s"] / r["ref_s"]
                                       for r in rounds), "ref"),
        "call_p50_ref": (statistics.median(x / r["ref_s"] for r in rounds
                                           for x in r["latency_s"]), "ref"),
        "call_tail_ref": (ref_tail, "ref"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
    }
    seconds = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "call_p50_ms": (1000 * statistics.median(
            x for r in rounds for x in r["latency_s"]), "ms"),
        "call_tail_ms": (1000 * group_tail(rounds, lambda r: 1.0)[0], "ms"),
        "ref_ms": (1000 * statistics.median(r["ref_s"] for r in rounds),
                   "ms"),
    }
    notes = ["%d rounds (wall_s %s; ref_ms %s) and %d setups"
             % (len(rounds), " ".join("%.4g" % r["wall_s"] for r in rounds),
                " ".join("%.3g" % (1000 * r["ref_s"]) for r in rounds),
                len(setup)),
             "call_tail is p%.2f of the %d calls of %d consecutive rounds%s; "
             "median over %d such groups" % (
                 pct, n, min(TAIL_ROUNDS, len(rounds)),
                 " (no percentile has ten calls beyond it: median)"
                 if n <= 10 else "", groups),
             "fail_ratio %d/%d = %g" % (failed, attempted, failed / attempted)]
    return metrics, seconds, attempted, failed, notes


def per_layer(runner):
    imports, plain, traced = runner.traced()
    metrics = {}
    for name in dict.fromkeys(t[0] for t in tracer.TARGETS):
        stats = [r["layers"].get(name, (0, 0.0)) for r in traced]
        metrics[name + ".calls"] = (stats[0][0], "count")
        metrics[name + ".self_s"] = (statistics.mean(s[1] for s in stats), "s")
    c = traced[0]["counters"]
    for name in COUNTS:
        metrics[name] = (c[name], "count")
    raw = c["pell.search.raw_isometries"]
    metrics["pell.search.accept_ratio"] = (
        c["pell.search.accepted"] / raw if raw else 0.0, "ratio")
    metrics["report.unattributed_s"] = (
        statistics.mean(r["counters"]["report.unattributed_s"] for r in traced),
        "s")
    metrics["import.sympy_s"] = (statistics.median(i[0] for i in imports), "s")
    metrics["import.k3cert_s"] = (statistics.median(i[1] for i in imports), "s")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain["wall_s"], "s")
    attempted = plain["attempted"] + sum(r["attempted"] for r in traced)
    failed = plain["failed"] + sum(r["failed"] for r in traced)
    notes = ["traced wall %.4f s vs untraced %.4f s; %d spans per traced round"
             % (traced_wall, plain["wall_s"], traced[0]["spans"])]
    return metrics, attempted, failed, notes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "k3cert", "cli.py")):
        print("error: no k3cert sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(args)
    calls = len(workloads.generate(args.workload, args.seed, args.smoke, ""))
    try:
        seconds = {}
        if args.trace:
            metrics, attempted, failed, notes = per_layer(runner)
        else:
            metrics, seconds, attempted, failed, notes = end_to_end(runner)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for err in runner.errors:
        print("wrong: %s" % err, file=sys.stderr)
    correct = not runner.errors
    print("workload %s, seed %d, %d calls per round"
          % (args.workload, args.seed, calls))
    for name, (value, unit) in metrics.items():
        print("  %-48s %14.6g %s" % (name, value, unit))
    if seconds:
        print("  as measured, not in units of the reference loop:")
    for name, (value, unit) in seconds.items():
        print("  %-48s %14.6g %s" % (name, value, unit))
    for note in notes:
        print("  " + note)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
