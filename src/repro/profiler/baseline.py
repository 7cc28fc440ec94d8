"""Perf-regression gating against a checked-in counter baseline.

``tools/profile_baseline.json`` pins, per kernel, the gated counters of
the default fig20 config plus the expected roofline classification.
``cli profile --check`` re-derives the profiles and fails (exit 1) when
any kernel regresses more than the baseline's tolerance on a gated
counter, changes classification, or disappears — which is what turns
the profiler from a report into a CI gate.

Counters gate directionally: ``time_us`` and byte counters may not
*grow* past tolerance, throughput/hit-rate counters may not *shrink*.
Getting faster is never a regression; baselines are refreshed
deliberately via ``cli profile --update-baseline`` (workflow in
``docs/PROFILER.md``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from ..integrity import write_atomic
from .counters import KernelProfile

__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_TOLERANCE_PCT",
    "GATED_COUNTERS",
    "baseline_from_profiles",
    "write_baseline",
    "load_baseline",
    "check_profiles",
]

BASELINE_SCHEMA = 1
DEFAULT_TOLERANCE_PCT = 10.0

#: gated counter -> direction ("lower" = growth is a regression,
#: "higher" = shrinkage is a regression)
GATED_COUNTERS: Dict[str, str] = {
    "time_us": "lower",
    "dram_bytes": "lower",
    "l2_bytes": "lower",
    "achieved_tflops": "higher",
    "hmma_issue_efficiency": "higher",
    "l1_sector_hit_rate": "higher",
}


def baseline_from_profiles(profiles: Dict[str, KernelProfile],
                           config: str,
                           tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
                           ) -> Dict[str, object]:
    """Baseline document pinning the gated counters of ``profiles``."""
    kernels: Dict[str, Dict[str, object]] = {}
    for name in sorted(profiles):
        counters = profiles[name].counters()
        entry: Dict[str, object] = {
            "classification": counters["classification"],
        }
        for key in sorted(GATED_COUNTERS):
            entry[key] = counters[key]
        kernels[name] = entry
    return {
        "schema": BASELINE_SCHEMA,
        "config": config,
        "tolerance_pct": tolerance_pct,
        "kernels": kernels,
    }


def write_baseline(path: Path, baseline: Dict[str, object]) -> None:
    """Write a baseline document (stable formatting for clean diffs)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(baseline, indent=2, sort_keys=True) + "\n")


def load_baseline(path: Path) -> Dict[str, object]:
    """Load and sanity-check a baseline document (``ValueError`` naming
    ``path`` when it is corrupt or not a baseline)."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupt baseline: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: baseline is not a JSON object")
    if doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"{path}: unsupported baseline schema {doc.get('schema')!r}")
    if not isinstance(doc.get("kernels"), dict):
        raise ValueError(f"{path}: baseline has no kernels map")
    return doc


def _regressed(key: str, base: float, cur: float, tol_pct: float) -> bool:
    if GATED_COUNTERS[key] == "lower":
        return cur > base * (1.0 + tol_pct / 100.0)
    return cur < base * (1.0 - tol_pct / 100.0)


def check_profiles(profiles: Dict[str, KernelProfile],
                   baseline: Dict[str, object],
                   config: Optional[str] = None) -> List[Dict[str, object]]:
    """Regressions of ``profiles`` against ``baseline`` (empty = pass).

    Each row names the kernel, the counter (or ``classification`` /
    ``missing``), the baseline and current values, and the relative
    change in percent.  ``config`` mismatches against the baseline's
    pinned config are reported as a single ``config`` row — comparing
    counters across configs is meaningless.
    """
    regressions: List[Dict[str, object]] = []
    if config is not None and config != baseline.get("config"):
        return [{"kernel": "*", "counter": "config",
                 "baseline": baseline.get("config"), "current": config,
                 "change_pct": None}]
    tol = float(baseline.get("tolerance_pct", DEFAULT_TOLERANCE_PCT))
    for name in sorted(baseline["kernels"]):
        entry = baseline["kernels"][name]
        if name not in profiles:
            regressions.append({"kernel": name, "counter": "missing",
                                "baseline": "profiled", "current": "absent",
                                "change_pct": None})
            continue
        counters = profiles[name].counters()
        if counters["classification"] != entry.get("classification"):
            regressions.append({
                "kernel": name, "counter": "classification",
                "baseline": entry.get("classification"),
                "current": counters["classification"], "change_pct": None,
            })
        for key in sorted(GATED_COUNTERS):
            base = entry.get(key)
            cur = counters.get(key)
            if base is None or cur is None:
                continue  # counters the kernel genuinely lacks
            if base == 0:
                continue
            if _regressed(key, float(base), float(cur), tol):
                regressions.append({
                    "kernel": name, "counter": key,
                    "baseline": base, "current": cur,
                    "change_pct": round(100.0 * (float(cur) - float(base))
                                        / float(base), 2),
                })
    return regressions
