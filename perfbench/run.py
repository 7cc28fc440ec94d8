"""Host-time benchmark of the simulator: one command, four workloads.

    python3 perfbench/run.py --workload {sweep,train,kernels,serve}
                             --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics, with every time put on the reference host speed of
``speed.py``; ``--trace 1`` measures one untraced and one traced
process and reports the per-layer metrics in host seconds.  The last
stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable table.  The exit code is 1
when any output check failed.  ``--tiny`` shrinks every workload for
the self-test.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "train", "kernels", "serve")
#: worker processes per untraced run; ``setup_s`` is their median
PROCESSES = 5
#: every run ends within this many seconds, or fails
DEADLINE_S = 170.0


def _child_env() -> dict:
    """The workers' environment: no inherited ``REPRO_*`` gate, one
    BLAS/OpenMP thread (one client, which never uses more than one
    core), and the checkout's ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(args, deadline: float, budget: float, est: float, must_run: bool,
           traced: bool, probe: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget), "--est", repr(est),
           "--must-run", str(int(must_run)), "--traced", str(int(traced)),
           "--tiny", str(int(args.tiny)), "--probe", str(int(probe))]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another worker")
    proc = subprocess.run(cmd, env=_child_env(), cwd=str(ROOT), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(xs, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _passes(workers):
    return [p for w in workers for p in w["passes"]]


def _outcome(workers):
    passes = _passes(workers)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return attempted, failed, [msg for p in passes for msg in p["problems"]]


def _digest_line(workers) -> str:
    digests = [p["digest"] for p in _passes(workers)]
    note = "" if len(set(digests)) == 1 else f"  (passes disagree: {sorted(set(digests))})"
    return f"digest {digests[0]}{note}"


def _at_ref(seconds: float, probe_s: float) -> float:
    """Host seconds measured while one probe took ``probe_s``, put on
    the reference speed."""
    return seconds * speed.REF_PROBE_S / probe_s


def end_to_end(args, deadline: float):
    """``PROCESSES`` fresh workers share the ``--seconds`` budget.  A
    pass longer than a worker's share still runs while it fits in what
    is left of the budget.  Every set-up and pass time is put on the
    reference speed with the mean probe time of its own interval."""
    workers = []
    remaining = float(args.seconds)
    for i in range(PROCESSES):
        walls = [p["wall_s"] for p in _passes(workers)]
        est = statistics.median(walls) if walls else 0.0
        share = remaining / (PROCESSES - i)
        if share < est <= remaining:
            share = est
        w = _spawn(args, deadline, share, est, must_run=not walls, traced=False,
                   probe=True)
        remaining -= sum(p["wall_s"] for p in w["passes"])
        workers.append(w)
    passes = _passes(workers)
    op_s = [x for p in passes for x in p["op_s"]]
    attempted, failed, problems = _outcome(workers)
    setups = [_at_ref(w["setup_s"], w["setup_probe_s"]) for w in workers]
    walls = [_at_ref(p["wall_s"], p["probe_s"]) for p in passes]
    rows = [
        ("setup_s", statistics.median(setups), "s", f"{len(workers)} processes"),
        ("wall_s", statistics.median(walls), "s", f"{len(passes)} passes"),
        ("ops_per_s", statistics.median(p["attempted"] / w for p, w in zip(passes, walls)),
         "1/s", f"{attempted} ops"),
        ("peak_rss_mb", max(w["peak_rss_mb"] for w in workers), "MB",
         f"max of {len(workers)} processes"),
    ]
    probes = [p["probe_s"] for p in passes]
    print(f"workload {args.workload}  seed {args.seed}  host time at the reference speed, "
          f"closed loop, one client, jobs=1, one BLAS thread")
    for name, value, unit, n in rows:
        print(f"  {name:<14}{value:>14.6g} {unit:<6} n={n}")
    print(f"  {'raw setup_s':<14}{statistics.median(w['setup_s'] for w in workers):>14.6g} "
          f"{'s':<6} host seconds, not on the reference speed")
    print(f"  {'raw wall_s':<14}{statistics.median(p['wall_s'] for p in passes):>14.6g} "
          f"{'s':<6} host seconds, not on the reference speed")
    print(f"  {'host speed':<14}{speed.REF_PROBE_S / statistics.median(probes):>14.6g} "
          f"{'x':<6} reference probe time / median probe time of the passes")
    # percentiles only where at least ten samples lie beyond p90
    n_beyond = len(op_s) - int(0.9 * len(op_s))
    for name, q in (("op_p50_ms", 0.5), ("op_p90_ms", 0.9)):
        value = f"{1e3 * _percentile(op_s, q):>14.6g}" if n_beyond >= 10 else f"{'n/a':>14}"
        print(f"  {name:<14}{value} {'ms':<6} n={len(op_s)} samples, {n_beyond} beyond p90")
    print(f"  {'fail_ratio':<14}{failed / max(1, attempted):>14.6g} {'ratio':<6} "
          f"n={attempted} attempted, {failed} failed")
    print(f"  {_digest_line(workers)}  (simulated statistics; reported, not gated)")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    return attempted, failed, problems, metrics


def per_layer(args, deadline: float):
    """One untraced and one traced worker, each with half the budget,
    both in raw host seconds (no speed probe)."""
    import layers

    half = float(args.seconds) / 2
    plain = _spawn(args, deadline, half, 0.0, must_run=True, traced=False, probe=False)
    tr = _spawn(args, deadline, half, 0.0, must_run=True, traced=True, probe=False)
    vals = dict(tr["layers"])
    plain_wall = statistics.median(p["wall_s"] for p in plain["passes"])
    traced_wall = statistics.median(p["wall_s"] for p in tr["passes"])
    vals["tracing_overhead_s"] = traced_wall - plain_wall
    print(f"workload {args.workload}  seed {args.seed}  traced run: per-layer host "
          f"time per pass ({len(tr['passes'])} traced, {len(plain['passes'])} untraced "
          f"passes); untraced pass {plain_wall:.4g} s")
    print(f"  {'metric':<34}{'value':>14} {'unit':<9} should move")
    for name in sorted(vals):
        print(f"  {name:<34}{vals[name]:>14.6g} {layers.unit(name):<9} "
              f"{layers.prediction(name)}")
    print(f"  {_digest_line([plain, tr])}  (simulated statistics; reported, not gated)")
    attempted, failed, problems = _outcome([plain, tr])
    metrics = {name: {"value": v, "unit": layers.unit(name)} for name, v in vals.items()}
    return attempted, failed, problems, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (self-test only)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT} holds no src/repro: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    deadline = time.monotonic() + DEADLINE_S
    try:
        attempted, failed, problems, metrics = (per_layer if args.trace else end_to_end)(
            args, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for msg in problems:
        print(f"  FAILED {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
