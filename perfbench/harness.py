"""Closed-loop rounds, latency statistics and the result line.

A round is one pass over a workload's fixed list of operations, each
started when the previous one returned.  A run makes whole rounds only:
at least ``MIN_ROUNDS``, and then another one while the time used plus the
longest round so far stays within the measuring time.  The timings take
each operation at its fastest of the run's rounds: on a machine shared
with other work, slow spells last from a fraction of a second to seconds,
and the fastest of three spaced repeats of an operation rarely falls in
one.  The first round's outputs are checked in full; every later round
must give the same fingerprints, since it repeats the same operations on
the same inputs.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Optional


class _Failed:
    """Output slot of an operation that raised."""

    def __repr__(self):
        return "FAILED"


FAILED = _Failed()


MIN_ROUNDS = 3


class Rounds:
    def __init__(self, count: int):
        self.walls: List[float] = []
        self.latencies: List[List[float]] = [[] for _ in range(count)]
        self.attempted = 0
        self.failed = 0
        self.first_outputs: Optional[list] = None
        self.fingerprints: Optional[list] = None
        self.mismatches: List[str] = []


def run_rounds(ops, seconds: float, fingerprint: Callable,
               call: Optional[Callable] = None,
               reference: Optional[list] = None) -> Rounds:
    """Make whole rounds of ``ops`` for about ``seconds``.

    ``call(label, fn, done)`` runs one operation; the traced run passes
    one that opens a root span around it.  ``reference`` holds the
    fingerprints an earlier set of rounds gave, which every round here
    must repeat.
    """
    rounds = Rounds(len(ops))
    start = perf_counter()
    while True:
        outputs = []
        t_round = perf_counter()
        for (label, fn), times in zip(ops, rounds.latencies):
            t0 = perf_counter()
            try:
                out = call(label, fn, outputs) if call else fn(outputs)
            except Exception:
                out = FAILED
                rounds.failed += 1
                print(f"operation {label} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            times.append(perf_counter() - t0)
            outputs.append(out)
        rounds.walls.append(perf_counter() - t_round)
        rounds.attempted += len(ops)
        prints = [o if o is FAILED else fingerprint(o) for o in outputs]
        if rounds.first_outputs is None:
            rounds.first_outputs = outputs
            rounds.fingerprints = prints
        for (label, _), ref, got in zip(ops, reference or rounds.fingerprints,
                                        prints):
            if got != ref and FAILED not in (got, ref):
                rounds.mismatches.append(
                    f"{label}: a repeated round gave another output")
        elapsed = perf_counter() - start
        if len(rounds.walls) >= MIN_ROUNDS and \
                elapsed + max(rounds.walls) > seconds:
            return rounds


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best_latencies(rounds: Rounds) -> List[float]:
    """Each operation's fastest time over the run's rounds."""
    return [min(times) for times in rounds.latencies]


def end_to_end(rounds: Rounds, setup_s: float) -> Dict[str, Dict[str, float]]:
    best = best_latencies(rounds)
    return {
        "wall_s": {"value": sum(best), "unit": "s"},
        "op_p50_ms": {"value": 1000 * statistics.median(best), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * percentile(best, 90), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
