"""Execution-plan codegen for the simulated sparse kernels.

PyOP2-style split of *plan construction* from *plan execution*: the
simulated octet/wmma kernels used to re-derive their tiling schedule
(vector-row walk, k-group/octet fragment gather, output-tile scatter)
in interpreted Python on every call.  This package compiles that
schedule once per (kernel fingerprint, structure signature) into
flattened NumPy index arrays — a *plan* — cached in the checksummed
``plan`` memo region, and executes it with a handful of vectorised
array ops and zero per-octet Python control flow.

Contracts:

* **bit parity** — plan execution is bit-for-bit the interpreted
  ``*_reference`` twin it replaces (outputs via uint16 views, issue
  accounting totals), enforced by the parity tests and the sanitizer
  ownership pass (:mod:`repro.sanitizer.plancheck`);
* **schedule only** — plans hold index arrays derived from topology
  and tile config, never operand values, fault payloads, or spans;
  fault-injection sites and obs spans fire at execution time.

The simulated kernels always execute their plan; the interpreted
twins stay callable as the parity oracle.
"""

from .core import cached_plan, plan_key
from .layout import GroupLayout, accumulation_levels, group_layout, row_of_group
from .sddmm import (
    SddmmOctetPlan,
    SddmmWmmaPlan,
    execute_sddmm_octet,
    execute_sddmm_wmma,
    sddmm_octet_plan,
    sddmm_wmma_plan,
)
from .spmm import (
    SpmmOctetPlan,
    SpmmWmmaPlan,
    execute_spmm_octet,
    execute_spmm_wmma,
    spmm_octet_plan,
    spmm_wmma_plan,
)
from .validate import validate_plan

__all__ = [
    "plan_key",
    "cached_plan",
    "GroupLayout",
    "group_layout",
    "accumulation_levels",
    "row_of_group",
    "SpmmOctetPlan",
    "SpmmWmmaPlan",
    "spmm_octet_plan",
    "spmm_wmma_plan",
    "execute_spmm_octet",
    "execute_spmm_wmma",
    "SddmmOctetPlan",
    "SddmmWmmaPlan",
    "sddmm_octet_plan",
    "sddmm_wmma_plan",
    "execute_sddmm_octet",
    "execute_sddmm_wmma",
    "validate_plan",
]
