"""Profile registry: the 13 registered kernels on seeded problems.

The case list mirrors the sanitizer's ``KERNEL_CASES`` name-for-name
(the contract is pinned by a test), but the problems are attention
shaped: a :class:`ProfileConfig` names a sequence length ``seq``, a
head dimension ``head``, a vector length and a vector-level density —
the fig20 geometry where SpMM is ``(seq x seq) @ (seq x head)``, SDDMM
produces the ``seq x seq`` score mask with inner dimension ``head``,
and the dense baseline is the matching cuBLAS GEMM.

Every case yields the kernel's authored stats, its calibrated latency
model, and — where a sector stream generator exists in
:mod:`repro.perfmodel.trace` — the trace-replay result that supplies
the measured L1 hit rate.  Everything is seeded and memoised, so
:func:`profile_all` is deterministic and cheap to re-run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..formats.blocked_ell import BlockedEllMatrix
from ..formats.csr import CSRMatrix
from ..formats.cvse import ColumnVectorSparseMatrix
from ..hardware.thread_hierarchy import ceil_div
from ..kernels.cusparse import (
    BlockedEllSpmmKernel,
    CusparseCsrSpmmKernel,
    CusparseSddmmKernel,
)
from ..kernels.gemm import DenseGemmKernel
from ..kernels.sddmm_fpu import FpuSddmmKernel
from ..kernels.sddmm_octet import OctetSddmmKernel
from ..kernels.sddmm_wmma import WmmaSddmmKernel
from ..kernels.softmax_sparse import SparseSoftmaxKernel
from ..kernels.spmm_fpu import FpuSpmmKernel
from ..kernels.spmm_octet import OctetSpmmKernel
from ..kernels.spmm_wmma import WmmaSpmmKernel
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..perfmodel import trace
from ..perfmodel.events import KernelStats
from ..perfmodel.latency import LatencyModel
from ..perfmodel.trace import TraceResult
from .counters import KernelProfile, profile_kernel

__all__ = ["ProfileConfig", "CONFIGS", "DEFAULT_CONFIG", "KERNEL_NAMES",
           "profile_all"]


@dataclass(frozen=True)
class ProfileConfig:
    """One seeded attention-shaped profiling problem."""

    name: str
    seq: int          # sequence length: both dims of the sparse operand
    head: int         # head dimension: SpMM N / SDDMM inner K
    v: int            # column-vector length
    density: float    # vector-level density of the sparse operand
    seed: int

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (the history store's config payload)."""
        return asdict(self)


#: named profile configs; the fig20 pair carries the acceptance gates
CONFIGS: Dict[str, ProfileConfig] = {
    "smoke": ProfileConfig("smoke", seq=128, head=64, v=4, density=0.25, seed=7),
    "fig20-k64": ProfileConfig("fig20-k64", seq=1024, head=64, v=8,
                               density=0.1, seed=7),
    "fig20-k256": ProfileConfig("fig20-k256", seq=1024, head=256, v=8,
                                density=0.1, seed=7),
}

DEFAULT_CONFIG = "fig20-k64"


# --------------------------------------------------------------------- #
# problem materialisation (seeded; same idiom as the sanitizer harness)
# --------------------------------------------------------------------- #
def _cvse(cfg: ProfileConfig) -> ColumnVectorSparseMatrix:
    rng = np.random.default_rng(cfg.seed)
    rows = cfg.seq // cfg.v
    keep = rng.random((rows, cfg.seq)) < cfg.density
    d = (rng.uniform(-1, 1, (rows, cfg.v, cfg.seq)) * keep[:, None, :])
    d = d.reshape(rows * cfg.v, cfg.seq)
    return ColumnVectorSparseMatrix.from_dense(d.astype(np.float16), cfg.v)


def _mask(cfg: ProfileConfig) -> ColumnVectorSparseMatrix:
    rng = np.random.default_rng(cfg.seed + 1)
    grp = rng.random((cfg.seq // cfg.v, cfg.seq)) < cfg.density
    return ColumnVectorSparseMatrix.mask_from_dense(
        np.repeat(grp, cfg.v, axis=0), cfg.v)


def _ell(cfg: ProfileConfig) -> BlockedEllMatrix:
    rng = np.random.default_rng(cfg.seed + 2)
    block = 16
    m = ceil_div(cfg.seq, block) * block
    return BlockedEllMatrix.random((m, m), block,
                                   sparsity=1.0 - cfg.density, rng=rng)


def _csr(cfg: ProfileConfig) -> CSRMatrix:
    rng = np.random.default_rng(cfg.seed + 3)
    d = rng.uniform(-1, 1, (cfg.seq, cfg.seq)) * (
        rng.random((cfg.seq, cfg.seq)) < cfg.density)
    return CSRMatrix.from_dense(d.astype(np.float16))


# --------------------------------------------------------------------- #
# cases: (stats, model, optional trace replay) per registered kernel
# --------------------------------------------------------------------- #
_Evidence = Tuple[KernelStats, LatencyModel, Optional[TraceResult]]


def _spmm_octet(cfg: ProfileConfig) -> _Evidence:
    a = _cvse(cfg)
    kern = OctetSpmmKernel()
    return kern.stats_for(a, cfg.head), kern._model, trace.trace_octet_spmm(a, cfg.head)


def _spmm_wmma(cfg: ProfileConfig) -> _Evidence:
    a = _cvse(cfg)
    kern = WmmaSpmmKernel()
    return kern.stats_for(a, cfg.head), kern._model, None


def _spmm_fpu(cfg: ProfileConfig) -> _Evidence:
    a = _cvse(cfg)
    kern = FpuSpmmKernel()
    return kern.stats_for(a, cfg.head), kern._model, None


def _spmm_ell(cfg: ProfileConfig) -> _Evidence:
    ell = _ell(cfg)
    kern = BlockedEllSpmmKernel()
    return kern.stats_for(ell, cfg.head), kern._model, trace.trace_blocked_ell(ell, cfg.head)


def _gemm(cfg: ProfileConfig) -> _Evidence:
    kern = DenseGemmKernel()
    stats = kern.stats_for_shape(cfg.seq, cfg.head, cfg.seq)
    return stats, kern._model, trace.trace_gemm(cfg.seq, cfg.head, cfg.seq)


def _sddmm_octet(variant: str) -> Callable[[ProfileConfig], _Evidence]:
    def build(cfg: ProfileConfig) -> _Evidence:
        mask = _mask(cfg)
        kern = OctetSddmmKernel(variant=variant)
        return (kern.stats_for(mask, cfg.head), kern._model,
                trace.trace_octet_sddmm(mask, cfg.head))
    return build


def _sddmm_wmma(cfg: ProfileConfig) -> _Evidence:
    mask = _mask(cfg)
    kern = WmmaSddmmKernel()
    return (kern.stats_for(mask, cfg.head), kern._model,
            trace.trace_wmma_sddmm(mask, cfg.head))


def _sddmm_fpu(cfg: ProfileConfig) -> _Evidence:
    mask = _mask(cfg)
    kern = FpuSddmmKernel()
    return kern.stats_for(mask, cfg.head), kern._model, None


def _softmax(cfg: ProfileConfig) -> _Evidence:
    a = _cvse(cfg)
    kern = SparseSoftmaxKernel()
    return kern.stats_for(a), kern._model, None


def _csr_spmm(cfg: ProfileConfig) -> _Evidence:
    csr = _csr(cfg)
    kern = CusparseCsrSpmmKernel()
    return kern.stats_for(csr, cfg.head), kern._model, None


def _csr_sddmm(cfg: ProfileConfig) -> _Evidence:
    csr = _csr(cfg)
    kern = CusparseSddmmKernel()
    return kern.stats_for(csr, cfg.head), kern._model, None


#: name -> evidence builder; names mirror the sanitizer's KERNEL_CASES
_CASES: Dict[str, Callable[[ProfileConfig], _Evidence]] = {
    "spmm-octet": _spmm_octet,
    "spmm-wmma": _spmm_wmma,
    "spmm-fpu": _spmm_fpu,
    "spmm-blocked-ell": _spmm_ell,
    "dense-gemm": _gemm,
    "sddmm-octet-reg": _sddmm_octet("reg"),
    "sddmm-octet-shfl": _sddmm_octet("shfl"),
    "sddmm-octet-arch": _sddmm_octet("arch"),
    "sddmm-wmma": _sddmm_wmma,
    "sddmm-fpu": _sddmm_fpu,
    "softmax": _softmax,
    "cusparse-csr-spmm": _csr_spmm,
    "cusparse-sddmm": _csr_sddmm,
}

#: the registered kernel names, registry order
KERNEL_NAMES: Tuple[str, ...] = tuple(_CASES)


def profile_all(config: ProfileConfig,
                kernels: Optional[List[str]] = None,
                top: int = 3) -> Dict[str, KernelProfile]:
    """Profile the registered kernels on ``config``.

    ``kernels`` restricts the run (unknown names raise ``ValueError``
    listing the valid choices); the result maps kernel name to its
    :class:`~repro.profiler.counters.KernelProfile` in registry order.
    """
    if kernels:
        unknown = sorted(set(kernels) - set(_CASES))
        if unknown:
            raise ValueError(
                f"unknown kernels: {unknown}; valid choices: {sorted(_CASES)}")
    names = [n for n in _CASES if kernels is None or n in set(kernels)]
    out: Dict[str, KernelProfile] = {}
    with obs_tracing.span("profiler.capture", config=config.name,
                          kernels=len(names)):
        for name in names:
            with obs_tracing.span(f"profiler.kernel.{name}"):
                stats, model, tr = _CASES[name](config)
                out[name] = profile_kernel(stats, model, trace=tr,
                                           config=config.name, top=top)
                out[name].name = name  # registry name, not the stats label
            obs_metrics.counter_add("profiler.kernels.profiled")
    return out
