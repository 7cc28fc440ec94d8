"""Nsight-Compute-analog profiler over the simulator's obs/stats substrate.

The package turns the evidence the simulator already produces — authored
:class:`~repro.perfmodel.events.KernelStats`, interval-model latency
estimates and trace-replay sector streams — into Nsight-vocabulary
counters, a roofline classification with ranked bottleneck attribution,
an append-only run-history store and a CI perf-regression gate:

* :mod:`repro.profiler.counters` — per-launch counter derivation
  (:func:`profile_kernel` -> :class:`KernelProfile`);
* :mod:`repro.profiler.roofline` — compute/memory/latency
  classification, two-ceiling roofline prediction and advice-ranked
  attribution;
* :mod:`repro.profiler.registry` — the 13 registered kernels on seeded
  fig20-style configs (:func:`profile_all`);
* :mod:`repro.profiler.history` — schema-validated
  ``results/profile_history.jsonl`` append/load/query;
* :mod:`repro.profiler.baseline` — gated-counter regression checking
  against ``tools/profile_baseline.json``;
* :mod:`repro.profiler.report` — the one report path: the paper's
  guideline table, the shared plain-text table renderer, profile
  tables, roofline summaries and diffs.

``python -m repro.cli profile`` is the front end.
"""

from .baseline import (
    GATED_COUNTERS,
    baseline_from_profiles,
    check_profiles,
    load_baseline,
    write_baseline,
)
from .counters import KernelProfile, profile_kernel
from .history import (
    append_record,
    load_history,
    make_record,
    query,
    validate_record,
)
from .registry import CONFIGS, DEFAULT_CONFIG, KERNEL_NAMES, ProfileConfig, profile_all
from .roofline import (
    attribution,
    classify,
    roofline_agreement,
    roofline_bound,
    roofline_doc,
)
from .report import diff_kernels, diff_records, profile_table, roofline_summary

__all__ = [
    "KernelProfile",
    "profile_kernel",
    "classify",
    "roofline_bound",
    "attribution",
    "roofline_doc",
    "roofline_agreement",
    "ProfileConfig",
    "CONFIGS",
    "DEFAULT_CONFIG",
    "KERNEL_NAMES",
    "profile_all",
    "make_record",
    "validate_record",
    "append_record",
    "load_history",
    "query",
    "GATED_COUNTERS",
    "baseline_from_profiles",
    "write_baseline",
    "load_baseline",
    "check_profiles",
    "profile_table",
    "roofline_summary",
    "diff_kernels",
    "diff_records",
]
