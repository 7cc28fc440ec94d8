"""Shared functional numerics for the sparse kernels.

All kernel variants of one operation are numerically equivalent (fp16
operands, fp32 accumulation) and differ only in their device mapping,
so the functional layer is shared: SpMM via a scipy CSR product, SDDMM
via a chunked gathered dot-product.  The register-level tensor-core
path (:mod:`repro.hardware.tensor_core`) is exercised by the slow
``simulate``-mode implementations in the octet kernels and by the unit
tests; its outputs agree with these fast paths to fp32-reassociation
tolerance.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from ..faults.injector import site as fault_site
from ..formats.cvse import ColumnVectorSparseMatrix
from .base import Precision, as_compute, check_2d

__all__ = [
    "spmm_functional",
    "sddmm_functional",
    "expand_vector_rows",
]


def expand_vector_rows(cvse) -> Tuple[np.ndarray, np.ndarray]:
    """(scalar_row, col) pairs of every stored scalar, in storage order."""
    v = cvse.vector_length
    vrows = np.repeat(np.arange(cvse.num_vector_rows), cvse.vector_row_nnz())
    rows = (vrows[:, None] * v + np.arange(v)[None, :]).reshape(-1)
    # storage order is (vector, lane): interleave accordingly
    cols = np.repeat(cvse.col_idx[:, None], v, axis=1).reshape(-1)
    return rows, cols


def spmm_functional(
    a: ColumnVectorSparseMatrix,
    b: np.ndarray,
    precision: Precision = "half",
    out_dtype=np.float16,
) -> np.ndarray:
    """``C = A @ B`` with fp32 accumulation; A in CVSE."""
    b = np.asarray(b)
    check_2d("B", b)
    if a.values is None:
        raise ValueError("SpMM needs values; got a mask-only encoding")
    if b.shape[0] != a.shape[1]:
        raise ValueError(f"inner dims mismatch: {a.shape} @ {b.shape}")
    b32 = as_compute(b, precision)
    # scalar CSR over the expanded rows, preserving explicit zeros
    rows, cols = expand_vector_rows(a)
    vals = as_compute(a.values, precision).reshape(-1)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=a.shape, dtype=np.float32)
    out = mat @ b32
    # declared fault-injection site: functional output SDC
    return fault_site("functional.spmm.out", out.astype(out_dtype))


def sddmm_functional(
    a: np.ndarray,
    b: np.ndarray,
    mask: ColumnVectorSparseMatrix,
    precision: Precision = "half",
    out_dtype=np.float16,
    chunk: int = 1 << 18,
) -> ColumnVectorSparseMatrix:
    """``C = (A @ B) .* D`` with D a CVSE mask; returns CVSE with values.

    ``A`` is (M, K) row-major; ``B`` is (K, N) (the paper stores it
    column-major to stand in for B^T — a layout, not a math, choice).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    check_2d("A", a)
    check_2d("B", b)
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"inner dims mismatch: {a.shape} @ {b.shape}")
    if mask.shape != (m, n):
        raise ValueError(f"mask shape {mask.shape} != output shape {(m, n)}")
    a32 = as_compute(a, precision)
    bt32 = as_compute(b, precision).T.copy()  # (N, K) rows = B columns
    rows, cols = expand_vector_rows(mask)
    out = np.empty(rows.size, dtype=np.float32)
    for lo in range(0, rows.size, chunk):
        hi = min(rows.size, lo + chunk)
        out[lo:hi] = np.einsum(
            "ck,ck->c", a32[rows[lo:hi]], bt32[cols[lo:hi]], optimize=True
        )
    values = out.reshape(mask.nnz_vectors, mask.vector_length).astype(out_dtype)
    # declared fault-injection site: functional output SDC
    return mask.with_values(fault_site("functional.sddmm.out", values))
