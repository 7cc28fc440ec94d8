"""Tagged-union schema for the ``BENCH_simulator.json`` trajectory.

The benchmark trajectory accumulated one record shape per bench script
— five heterogeneous ad-hoc dicts.  This module pins each shape as a
tagged union: the tag is the ``benchmark``/``bench`` field, and every
kind requires the common provenance fields (``timestamp``/``python``/
``machine``/``cpus``) plus its own payload keys.  Extra keys are allowed — the schema pins what a
record *must* carry, not everything it may.

``tools/check_bench_schema.py`` validates the checked-in trajectory in
CI, and every ``benchmarks/bench_*.py`` appends through
:func:`append_bench_record`, so an unvalidated shape can no longer
land in the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from .integrity import write_atomic

__all__ = [
    "COMMON_FIELDS",
    "KINDS",
    "kind_of",
    "validate_record",
    "validate_trajectory",
    "append_bench_record",
]

#: provenance every record carries regardless of kind
COMMON_FIELDS = ["timestamp", "python", "machine", "cpus"]

#: kind tag -> required payload fields; ``benchmark:*`` / ``bench:*``
#: tags come from the record's own discriminator field
KINDS: Dict[str, List[str]] = {
    "benchmark:wallclock": [
        "baseline_serial_memo_off_s", "fast_jobs_memo_on_s", "jobs",
        "speedup", "repeats", "experiments", "outputs_identical",
    ],
    "benchmark:trace_replay": [
        "problem", "streams", "sampled_sectors", "scalar_reference_s",
        "vector_engine_s", "speedup", "repeats", "outputs_identical",
    ],
    "benchmark:obs-overhead": [
        "disabled_s", "enabled_s", "enabled_mode_delta_pct",
        "projected_disabled_overhead_pct", "overhead_gate_pct",
        "gate_passed", "noop_span_ns", "noop_counter_ns", "enabled_spans",
        "chrome_schema_valid", "repeats", "experiments",
    ],
    "benchmark:plan_codegen": [
        "problem", "kernels", "speedup", "min_simulated_speedup",
        "repeats", "outputs_identical",
    ],
    "bench:resilience": [
        "memo_checksum_off_s", "memo_checksum_on_s",
        "checksum_overhead_pct", "smoke_campaign_s",
        "smoke_campaign_passed", "sweep", "repeats", "outputs_identical",
    ],
    "bench:sharedmemo": [
        "cold_s", "warm_s", "shared_off_s", "warm_speedup",
        "warm_hit_rate", "warm_shared_hits", "warm_shared_misses",
        "sweep", "repeats", "outputs_identical",
    ],
    "bench:serving": [
        "scenario", "requests", "seed", "wall_s", "simulated_s",
        "requests_per_s", "goodput_fraction", "worst_p99_slo_ratio",
        "corrupt_served", "corrupt_detected", "shed", "final_level",
        "ledger_digest", "outputs_identical",
    ],
}


def kind_of(record: Dict[str, object]) -> str:
    """The record's tag (raises ``ValueError`` for unrecognised shapes)."""
    if not isinstance(record, dict):
        raise ValueError("bench record is not an object")
    if "benchmark" in record:
        return f"benchmark:{record['benchmark']}"
    if "bench" in record:
        return f"bench:{record['bench']}"
    raise ValueError(f"record has no benchmark/bench tag; keys: {sorted(record)}")


def validate_record(record: Dict[str, object]) -> List[str]:
    """Schema problems of one record (empty list = valid)."""
    try:
        kind = kind_of(record)
    except ValueError as exc:
        return [str(exc)]
    if kind not in KINDS:
        return [f"unknown record kind {kind!r}; valid: {sorted(KINDS)}"]
    missing = [k for k in COMMON_FIELDS + KINDS[kind] if k not in record]
    return [f"{kind} record missing field {k!r}" for k in missing]


def validate_trajectory(records: object) -> List[str]:
    """Schema problems of a whole trajectory, prefixed by record index."""
    if not isinstance(records, list):
        return ["trajectory is not a JSON array"]
    problems: List[str] = []
    for i, record in enumerate(records):
        problems.extend(f"record {i}: {p}" for p in validate_record(record))
    return problems


def append_bench_record(path: Path, record: Dict[str, object]) -> None:
    """Validate ``record``, then append it to the trajectory at ``path``.

    The trajectory is rewritten whole (``indent=2`` + trailing newline)
    through :func:`repro.integrity.write_atomic`, so an interrupted
    append leaves the previous trajectory; an invalid record raises
    before anything is touched.
    """
    problems = validate_record(record)
    if problems:
        raise ValueError(f"refusing to append invalid bench record: {problems}")
    path = Path(path)
    trajectory = json.loads(path.read_text()) if path.exists() else []
    if not isinstance(trajectory, list):
        raise ValueError(f"{path} does not hold a JSON array")
    trajectory.append(record)
    write_atomic(path, json.dumps(trajectory, indent=2) + "\n")
