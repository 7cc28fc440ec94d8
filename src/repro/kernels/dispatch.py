"""High-level operation API: ``spmm`` / ``sddmm`` / ``sparse_softmax``.

The public entry points pick a kernel by name (default: the paper's
octet designs) and return a :class:`~repro.kernels.base.KernelResult`
carrying both the numeric output and the simulated-device timing.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

import numpy as np

from ..formats.cvse import ColumnVectorSparseMatrix
from ..hardware.config import GPUSpec
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from .base import Kernel, KernelResult, Precision, check_2d
from .gemm import DenseGemmKernel
from .sddmm_fpu import FpuSddmmKernel
from .sddmm_octet import OctetSddmmKernel
from .sddmm_wmma import WmmaSddmmKernel
from .softmax_sparse import SparseSoftmaxKernel
from .spmm_fpu import FpuSpmmKernel
from .spmm_octet import OctetSpmmKernel
from .spmm_wmma import WmmaSpmmKernel

__all__ = ["spmm", "sddmm", "sparse_softmax", "dense_gemm", "SPMM_KERNELS", "SDDMM_KERNELS"]

SPMM_KERNELS: Dict[str, Type[Kernel]] = {
    "octet": OctetSpmmKernel,
    "mma": OctetSpmmKernel,
    "fpu": FpuSpmmKernel,
    "wmma": WmmaSpmmKernel,
}

SDDMM_KERNELS: Dict[str, Type[Kernel]] = {
    "octet": OctetSddmmKernel,
    "mma": OctetSddmmKernel,
    "fpu": FpuSddmmKernel,
    "wmma": WmmaSddmmKernel,
}


def spmm(
    a: ColumnVectorSparseMatrix,
    b: np.ndarray,
    kernel: str = "octet",
    spec: Optional[GPUSpec] = None,
    precision: Precision = "half",
    **kwargs,
) -> KernelResult:
    """``C = A @ B`` with A in column-vector sparse encoding.

    ``kernel`` in {"octet" (default, §5.3), "fpu" (§5.1), "wmma"
    (§5.2)}.
    """
    try:
        cls = SPMM_KERNELS[kernel]
    except KeyError:
        raise ValueError(f"unknown SpMM kernel {kernel!r}; choose from {sorted(SPMM_KERNELS)}")
    check_2d("B", b)
    obs_metrics.counter_add("kernel.dispatch.spmm")
    with obs_tracing.span("kernel.spmm", kernel=kernel,
                          m=a.shape[0], k=a.shape[1], n=b.shape[1]):
        return cls(spec=spec, precision=precision, **kwargs).run(a, b)


def sddmm(
    a: np.ndarray,
    b: np.ndarray,
    mask: ColumnVectorSparseMatrix,
    kernel: str = "octet",
    spec: Optional[GPUSpec] = None,
    precision: Precision = "half",
    **kwargs,
) -> KernelResult:
    """``C = (A @ B) ∘ D`` with D a CVSE mask; returns CVSE output.

    ``kernel`` in {"octet" (default, §6.3; pass ``variant`` =
    reg/shfl/arch), "fpu" (§6.1), "wmma" (§6.2)}.
    """
    try:
        cls = SDDMM_KERNELS[kernel]
    except KeyError:
        raise ValueError(f"unknown SDDMM kernel {kernel!r}; choose from {sorted(SDDMM_KERNELS)}")
    check_2d("A", a)
    check_2d("B", b)
    obs_metrics.counter_add("kernel.dispatch.sddmm")
    with obs_tracing.span("kernel.sddmm", kernel=kernel,
                          m=a.shape[0], k=a.shape[1], n=b.shape[1]):
        return cls(spec=spec, precision=precision, **kwargs).run(a, b, mask)


def sparse_softmax(
    a: ColumnVectorSparseMatrix,
    scale: float = 1.0,
    spec: Optional[GPUSpec] = None,
    precision: Precision = "half",
) -> KernelResult:
    """Row-wise softmax over a CVSE matrix (the §7.4 custom kernel)."""
    obs_metrics.counter_add("kernel.dispatch.sparse_softmax")
    with obs_tracing.span("kernel.sparse_softmax", m=a.shape[0], n=a.shape[1]):
        return SparseSoftmaxKernel(spec=spec, precision=precision, scale=scale).run(a)


def dense_gemm(
    a: np.ndarray,
    b: np.ndarray,
    spec: Optional[GPUSpec] = None,
    precision: Precision = "half",
) -> KernelResult:
    """cuBLAS-analog dense GEMM (the paper's dense baseline)."""
    obs_metrics.counter_add("kernel.dispatch.dense_gemm")
    with obs_tracing.span("kernel.dense_gemm",
                          m=a.shape[0], k=a.shape[1], n=b.shape[1]):
        return DenseGemmKernel(spec=spec, precision=precision).run(a, b)
