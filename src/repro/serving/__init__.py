"""Multi-tenant serving simulation over the sparse-kernel cost model.

The serving layer (ROADMAP item 1) drives the reproduction's kernels
with synthetic request traffic and reports what a cluster would
deliver: SLO percentiles, goodput under overload, and — because a
serving layer is only credible when things go wrong — typed behaviour
under injected worker stalls, latency spikes, and corrupted batch
results.

Modules
-------
* :mod:`~repro.serving.workload` — scenarios and seeded multi-tenant
  request tables (Poisson/bursty arrivals, mixed sequence lengths).
* :mod:`~repro.serving.costmodel` — batch service times composed from
  the per-kernel latency estimates (memoised shapes nearly free).
* :mod:`~repro.serving.policies` — admission token buckets,
  deterministic retry/hedging, the SLO-guardrail degradation ladder.
* :mod:`~repro.serving.faultplan` — the seeded fault schedule behind
  the declared ``serving.*`` fault sites.
* :mod:`~repro.serving.simulator` — the discrete-event loop and the
  bit-reproducible request ledger.
* :mod:`~repro.serving.report` — percentile/goodput reports, the
  load sweep, and Chrome-timeline export.

Entry points: ``python -m repro.cli serve`` and
``benchmarks/bench_serving.py``; see ``docs/SERVING.md``.
"""

from .report import (format_report, format_sweep, load_sweep, overload_gates,
                     profile_summary, report, timeline_spans, worst_p99_slo_ratio)
from .simulator import OUTCOMES, ServingResult, simulate
from .workload import SCENARIOS, Scenario, Workload, generate_workload, get_scenario

__all__ = [
    "OUTCOMES",
    "SCENARIOS",
    "Scenario",
    "ServingResult",
    "Workload",
    "format_report",
    "format_sweep",
    "generate_workload",
    "get_scenario",
    "load_sweep",
    "overload_gates",
    "profile_summary",
    "report",
    "simulate",
    "timeline_spans",
    "worst_p99_slo_ratio",
]
