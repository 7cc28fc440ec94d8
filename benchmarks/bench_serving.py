"""Throughput + robustness benchmark for the serving simulator (PR 9).

The claim under test: the discrete-event serving simulator processes
requests fast enough to sweep (tens of thousands of requests per wall
second), and under the seeded ``overload`` scenario — 2.2x offered
load plus injected worker stalls, latency spikes and corrupted batch
results — it degrades gracefully rather than collapsing:

* every request ends in a typed outcome (nothing silently dropped),
* admitted-request p99 stays within every tenant's SLO,
* corrupted batch results are detected and retried, never served,
* goodput declines boundedly (>= ``GOODPUT_FLOOR`` of offered tokens),
* the ledger digest is bit-identical across same-seed reruns.

A record is appended to ``BENCH_simulator.json`` (skipped under
``--smoke``).

Usage::

    python benchmarks/bench_serving.py [--smoke] [--requests N]
                                       [--seed S] [--out BENCH_simulator.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO / "BENCH_simulator.json"

#: minimum simulated requests per wall-clock second
THROUGHPUT_FLOOR = 2_000.0
#: minimum goodput (tokens completed / tokens offered) at 2.2x overload
GOODPUT_FLOOR = 0.15


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Benchmark the serving simulator's throughput and its "
                    "graceful degradation under the overload scenario")
    ap.add_argument("--smoke", action="store_true",
                    help="smaller run, no trajectory append (CI)")
    ap.add_argument("--requests", type=int, default=0,
                    help="requests per run (default 40000, or 8000 smoke)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=str, default=str(DEFAULT_OUT),
                    help="trajectory JSON to append to")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    from repro.serving import (get_scenario, overload_gates, report, simulate,
                               worst_p99_slo_ratio)

    n = args.requests or (8_000 if args.smoke else 40_000)
    scenario = get_scenario("overload")

    # warm the cost-model memo so the timed runs measure the event loop,
    # not first-touch kernel estimation
    simulate(scenario, 500, args.seed)

    t0 = time.perf_counter()
    result = simulate(scenario, n, args.seed)
    wall_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    rerun = simulate(scenario, n, args.seed)
    rerun_s = time.perf_counter() - t0

    doc = report(result)
    identical = rerun.ledger_digest() == result.ledger_digest()
    best_s = min(wall_s, rerun_s)
    req_per_s = n / best_s if best_s else 0.0
    worst = worst_p99_slo_ratio(doc)

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "bench": "serving",
        "scenario": f"overload {scenario.load}x + stalls/spikes/corruption",
        "requests": n,
        "seed": args.seed,
        "wall_s": round(best_s, 3),
        "requests_per_s": round(req_per_s, 1),
        "simulated_s": round(doc["duration_us"] / 1e6, 3),
        "goodput_fraction": doc["goodput_fraction"],
        "worst_p99_slo_ratio": round(worst, 4),
        "corrupt_detected": int(doc["counters"].get("faults_detected", 0)),
        "corrupt_served": doc["outcomes"]["corrupt-served"],
        "shed": doc["outcomes"]["shed-admission"] + doc["outcomes"]["shed-queue"],
        "final_level": doc["final_level"],
        "ledger_digest": doc["ledger_digest"],
        "outputs_identical": identical,
    }
    print(json.dumps(record, indent=2))

    if not args.smoke:
        from repro.benchrecords import append_bench_record

        append_bench_record(Path(args.out), record)

    failures = overload_gates(doc, rerun)
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    if failures:
        return 1
    if doc["goodput_fraction"] < GOODPUT_FLOOR:
        print(f"ERROR: goodput {doc['goodput_fraction']:.1%} below the "
              f"{GOODPUT_FLOOR:.0%} floor", file=sys.stderr)
        return 1
    if req_per_s < THROUGHPUT_FLOOR:
        print(f"ERROR: {req_per_s:.0f} requests/s below the "
              f"{THROUGHPUT_FLOOR:.0f}/s floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
