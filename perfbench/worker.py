"""One benchmark process: set up a workload, run timed passes, report.

Started by ``run.py`` (never by hand) with ``PYTHONPATH`` pointing at
the checkout's ``src``.  Prints one JSON object as its last stdout line.

Pass loop: the first pass runs when ``--must-run`` is set; another pass
starts only while the passes so far, plus the expected length of one
more (the median so far, or ``--est`` before the first), fit in
``--budget`` seconds.

With ``--probe 1`` the host-speed probe (``speed.py``) runs from the
first line on.  Set-up and every pass are then timed with
``speed.clock`` (probe time left out), and each carries the mean probe
time it saw, from which ``run.py`` puts it on the reference speed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--est", type=float, default=0.0)
    ap.add_argument("--must-run", type=int, default=0)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--tiny", type=int, default=0)
    ap.add_argument("--probe", type=int, default=1)
    args = ap.parse_args()
    if args.probe:
        speed.start()
    try:
        return _run(args)
    finally:
        speed.stop()  # an alarm after the handler is gone would kill the process


def _run(args) -> int:
    # imported here, after the probe starts: importing repro is set-up
    import workloads
    from repro.perfmodel import memo

    wl = workloads.WORKLOADS[args.workload]()
    with workloads.quiet_stdout():
        wl.setup(args.seed, bool(args.tiny))
    setup_s = speed.clock() - T_START
    setup_probe_s = speed.mean_probe_s((0, 0.0))

    ledger = on_op = None
    if args.traced:
        import layers
        from repro import obs
        from repro.obs import metrics

        layers.install()
        ledger = layers.LayerLedger()
        obs.enable()

        def on_op() -> None:
            ledger.fold_spans(obs.drain())

    passes = []
    elapsed = 0.0
    with workloads.quiet_stdout():
        while True:
            if passes or not args.must_run:
                est = statistics.median(p.wall_s for p in passes) if passes else args.est
                if est <= 0 or elapsed + est > args.budget:
                    break
            if wl.cold_memo:
                memo.clear()
            if ledger is not None:
                obs.reset()
                metrics.reset()
                before = memo.counters()
            since = speed.mark()
            res = wl.run_pass(on_op)
            res.probe_s = speed.mean_probe_s(since)
            if ledger is not None:
                after = memo.counters()
                delta = {r: (h - before.get(r, (0, 0))[0], m - before.get(r, (0, 0))[1])
                         for r, (h, m) in after.items()}
                ledger.end_pass(res.wall_s, delta, metrics.counters(), metrics.histograms())
            passes.append(res)
            elapsed += res.wall_s

    out = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [vars(p) for p in passes],
        "layers": ledger.metrics() if ledger is not None else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
