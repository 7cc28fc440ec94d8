"""Plan-cache core: content-addressed lookup of compiled plans.

A *plan* is the schedule half of a kernel execution — precomputed
gather/scatter index arrays and fragment batch descriptors derived
from a sparsity structure and a kernel's tile configuration, never
from operand values.  Compiling one costs a per-row Python walk (the
thing the plan exists to amortise), so plans are cached in the
checksummed ``plan`` region of :mod:`repro.perfmodel.memo`, keyed on

* an operation tag (``"spmm-octet"``, ``"sddmm-wmma"``, ...),
* :func:`~repro.perfmodel.memo.kernel_fingerprint` of the kernel
  instance (class + uppercase tile constants + scalar attributes), so
  changing a tile config invalidates the plan, and
* :func:`~repro.perfmodel.memo.signature` of the sparse structure
  (shape, vector length, topology digest — values excluded), plus any
  runtime extras (e.g. the SDDMM inner dimension).

The blob storage gives plans the same corruption semantics as the
stats/latency regions: a tampered entry is detected by its BLAKE2b
digest and recompiled, never executed.  Because unpickling always
materialises a fresh object, executors may treat cached plans as
immutable without a defensive copy.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from ..perfmodel import memo

__all__ = ["plan_key", "cached_plan"]


def plan_key(op: str, kern: Any, structure: Any, *extras) -> Tuple:
    """Content address of a plan (see the module docstring for parts).

    Raises :class:`TypeError` when the kernel instance carries
    unfingerprintable attributes — the caller then compiles fresh
    rather than risk serving another configuration's schedule.
    """
    return (op, memo.kernel_fingerprint(kern), memo.signature(structure)) + tuple(extras)


def cached_plan(op: str, kern: Any, structure: Any, extras: Tuple, compute: Callable[[], Any]):
    """Fetch (or compile and store) a plan through the ``plan`` region.

    Misses run ``compute`` inside the memo layer's ``memo.miss.plan``
    tracing span; hits re-verify the stored blob's digest before
    unpickling.  Falls back to a fresh compile when memoisation is
    disabled or the key cannot be formed.
    """
    if not memo.enabled():
        return compute()
    try:
        key = plan_key(op, kern, structure, *extras)
    except TypeError:
        return compute()
    return memo.memoise("plan", key, compute, copy_result=False)
