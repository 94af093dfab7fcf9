"""Run one benchmark workload of metlie and print its metrics.

    python3 perfbench/run.py --workload catalog-sweep --seed 1 \
        --seconds 15 --trace 0

Run it from the root of a checkout: it imports ``metlie`` from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (wall_s, op_p50_ms, op_p90_ms,
setup_s, peak_rss_mb); with ``--trace 1`` the same rounds run first
untraced and then with every module boundary wrapped, and the metrics are
the per-layer ones plus ``trace.overhead_s``; the spans are written under
``perfbench/results/``.  The exit status is 0 when every output passed its
checks, 1 when a check failed and 2 when the program cannot be loaded.
"""

from time import perf_counter

_ENTRY = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "catalog-sweep": "catalog_sweep",
    "equivalence-orbits": "equivalence_orbits",
    "extract-roundtrip": "extract_roundtrip",
}


def _before_entry() -> float:
    """Seconds from process start to the first line of this file, read from
    /proc (10 ms resolution); 0 where /proc is unavailable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    lag = now - started - (perf_counter() - _ENTRY)
    return lag if 0.0 <= lag < 10.0 else 0.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    before = _before_entry()
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [HERE, src]
    try:
        metlie = importlib.import_module("metlie")
    except ImportError as exc:
        print(f"cannot import metlie from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(metlie.__file__).startswith(src + os.sep):
        print(f"metlie was imported from {metlie.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import harness
    workload = importlib.import_module(WORKLOADS[args.workload])

    inputs = workload.setup(args.seed)
    ops = workload.operations(inputs)
    setup_s = before + perf_counter() - _ENTRY

    if args.trace:
        import tracing
        plain = harness.run_rounds(ops, args.seconds / 2, workload.fingerprint)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = harness.run_rounds(
                ops, args.seconds / 2, workload.fingerprint,
                call=tracer.call,
                reference=plain.fingerprints)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(traced.walls))
        overhead = (sum(harness.best_latencies(traced))
                    - sum(harness.best_latencies(plain)))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        stem = os.path.join(HERE, "results",
                            f"trace-{args.workload}-seed{args.seed}")
        tracer.write(stem, {"workload": args.workload, "seed": args.seed,
                            "traced_rounds": len(traced.walls),
                            "untraced_rounds": len(plain.walls)})
        if tracer.absent:
            print("absent boundaries: " + ", ".join(tracer.absent),
                  file=sys.stderr)
        mismatches = plain.mismatches + traced.mismatches
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        first = plain
    else:
        first = harness.run_rounds(ops, args.seconds, workload.fingerprint)
        metrics = harness.end_to_end(first, setup_s)
        mismatches = first.mismatches
        attempted, failed = first.attempted, first.failed

    problems = mismatches + workload.check(inputs, first.first_outputs)
    for line in problems[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    correct = not problems
    print(harness.result_line(correct, attempted, failed, metrics))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
