"""Ownership pass over compiled execution plans.

The plan compilers of :mod:`repro.plans` turn the interpreted kernel
walks into flattened gather/scatter schedules; a wrong schedule does
not crash — it silently mis-attributes fragments.  This checker
compiles each kernel's plan for the case's problem (through the cache,
so the checked artifact is the cached artifact) and replays the
ownership contract against the structure via
:func:`repro.plans.validate_plan`, wrapping violations into
:class:`~repro.sanitizer.findings.Finding` rows under the existing
``ownership`` checker.

Counters report the schedule extents (``plan.groups``,
``plan.slots``) so a silently-empty plan is visible in the report.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .. import plans
from .findings import Checker, Finding

__all__ = [
    "check_spmm_octet_plan",
    "check_spmm_wmma_plan",
    "check_sddmm_octet_plan",
    "check_sddmm_wmma_plan",
]

_Result = Tuple[List[Finding], Dict[str, int]]


def _wrap(kernel: str, messages: List[str], location: str) -> List[Finding]:
    return [
        Finding(Checker.OWNERSHIP, kernel, msg, location=location)
        for msg in messages
    ]


def _layout_counters(plan) -> Dict[str, int]:
    lay = plan.layout
    return {"plan.groups": int(lay.num_groups), "plan.slots": int(lay.slots.size)}


def check_spmm_octet_plan(kern, a) -> _Result:
    """Validate the octet SpMM plan compiled for ``kern`` on ``a``."""
    plan = plans.spmm_octet_plan(kern, a)
    msgs = plans.validate_plan(plan, a)
    return _wrap(kern.name, msgs, "plans.spmm_octet_plan"), _layout_counters(plan)


def check_spmm_wmma_plan(kern, a) -> _Result:
    """Validate the wmma SpMM plan compiled for ``kern`` on ``a``."""
    plan = plans.spmm_wmma_plan(kern, a)
    msgs = plans.validate_plan(plan, a)
    return _wrap(kern.name, msgs, "plans.spmm_wmma_plan"), _layout_counters(plan)


def check_sddmm_octet_plan(kern, mask, k: int) -> _Result:
    """Validate the octet SDDMM plan compiled for ``kern`` on ``mask``."""
    plan = plans.sddmm_octet_plan(kern, mask, k)
    msgs = plans.validate_plan(plan, mask, k=k)
    return _wrap(kern.name, msgs, "plans.sddmm_octet_plan"), _layout_counters(plan)


def check_sddmm_wmma_plan(kern, mask, k: int) -> _Result:
    """Validate the wmma SDDMM plan compiled for ``kern`` on ``mask``."""
    plan = plans.sddmm_wmma_plan(kern, mask, k)
    msgs = plans.validate_plan(plan, mask, k=k)
    return _wrap(kern.name, msgs, "plans.sddmm_wmma_plan"), _layout_counters(plan)

