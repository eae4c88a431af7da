"""One round of a workload in a fresh interpreter.

Usage (started by ``run.py``, one at a time):

    python3 bench/worker.py probe
    python3 bench/worker.py round WORKLOAD SEED SMOKE TRACE OUT_DIR

``probe`` only imports ``k3cert.cli``.  ``round`` then runs the workload's
invocations through ``k3cert.cli.main`` as a single-client closed loop and
checks every answer.  Either prints one JSON object on stdout; ``setup_end``
is the ``perf_counter`` reading after the import, which the parent compares
with its own reading taken just before it started this process.
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main(argv):
    sys.path.insert(0, SRC)
    import k3cert.cli
    setup_end = time.perf_counter()
    import json
    if not os.path.abspath(k3cert.cli.__file__).startswith(SRC + os.sep):
        print("k3cert was imported from %s, not from %s"
              % (k3cert.cli.__file__, SRC), file=sys.stderr)
        return 2
    result = {"setup_end": setup_end}
    if argv[0] == "round":
        workload, seed, smoke, trace, out_dir = argv[1:]
        result.update(run_round(k3cert.cli, workload, int(seed),
                                smoke == "1", trace == "1", out_dir))
    print(json.dumps(result))
    return 0


def run_round(cli, workload, seed, smoke, trace, out_dir):
    import contextlib
    import io
    import json
    import resource

    sys.path.insert(0, BENCH)
    import workloads
    import tracer as tracing

    json_path = os.path.join(out_dir, "report-%s.json" % workload)
    queries = workloads.generate(workload, seed, smoke, json_path)
    reference = None
    if workload == "certificate":
        with open(os.path.join(BENCH, "reference", "certificate.json")) as fh:
            reference = json.load(fh)

    tracer = tracing.Tracer()
    restore = tracing.install(tracer) if trace else None
    latencies, outputs = [], []
    clock = time.perf_counter
    start = clock()
    for i, q in enumerate(queries):
        tracer.invocation = i
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(q.argv)
        except SystemExit as exc:   # argparse usage errors
            rc = exc.code
        except Exception as exc:    # a crash counts as a failed operation
            rc = "crash: %r" % (exc,)
        latencies.append(clock() - t0)
        outputs.append((rc, out.getvalue()))
    wall = clock() - start
    if restore is not None:
        restore()

    errors = [e for e in (workloads.check(q, rc, out, reference)
                          for q, (rc, out) in zip(queries, outputs)) if e]
    res = {"wall_s": wall, "latency_s": latencies,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "attempted": len(queries), "failed": len(errors),
           "errors": errors[:5]}
    if trace:
        main_ns = sum(e - s for *_, name, s, e in tracer.spans
                      if name == "cli.main")
        res["layers"] = tracer.rollup()
        res["counters"] = dict(tracer.counters)
        res["counters"]["report.unattributed_s"] = (
            main_ns / 1e9 - tracer.counters["report.elapsed_ms_sum"] / 1000.0)
        res["spans"] = len(tracer.spans)
        tracer.write(os.path.join(out_dir, "spans-%s.csv" % workload))
    return res


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
