#!/usr/bin/env python
"""Profile kernels against the paper's five guidelines (§3.2).

Builds the §7.2.2 reference benchmarks and prints Table-2/Table-3-style
guideline profiles for every SpMM and SDDMM implementation, plus the
stall-reason breakdowns that explain each design's behaviour.

Run:  python examples/kernel_profiler.py
"""

import numpy as np

from repro import cvse_from_csr_topology
from repro.datasets import generate_topology
from repro.formats import ColumnVectorSparseMatrix, blocked_ell_matching
from repro.kernels import (
    BlockedEllSpmmKernel,
    FpuSddmmKernel,
    FpuSpmmKernel,
    OctetSddmmKernel,
    OctetSpmmKernel,
    WmmaSddmmKernel,
    WmmaSpmmKernel,
)
from repro import profile_kernel
from repro.profiler.report import format_table, guidelines_table


def profile(name, kern, stats):
    """Profile one launch under ``name``; keep its register count."""
    rep = profile_kernel(stats, kern._model)
    rep.name = name
    return rep, stats.resources.registers_per_thread


def print_detail(profiled):
    print("\nper-kernel detail:")
    for rep, regs in profiled:
        print(
            f"  {rep.name:12s}: {rep.time_us:7.1f} us  limiter={rep.limiter:14s} "
            f"occupancy={rep.occupancy_pct:.0f}%  regs/thread={regs}"
        )


rng = np.random.default_rng(0)
V, N, K = 4, 256, 256

# --- SpMM: A[2048x1024] x B[1024x256], 90% sparsity --------------------------
topo = generate_topology((2048 // V, 1024), 0.9, rng)
a = cvse_from_csr_topology(topo, V, rng)
ell = blocked_ell_matching(a, rng)

profiled = [
    profile(name, kern, kern.stats_for(mat, N))
    for name, kern, mat in (
        ("MMA (octet)", OctetSpmmKernel(), a),
        ("WMMA (warp)", WmmaSpmmKernel(), a),
        ("CUDA (fpu)", FpuSpmmKernel(), a),
        ("Blocked-ELL", BlockedEllSpmmKernel(), ell),
    )
]

print(f"SpMM guideline profile (V={V}, 2048x1024x{N} @ 90% — Table 2 layout)\n")
print(format_table(guidelines_table([rep for rep, _ in profiled])))
print_detail(profiled)

# --- SDDMM: A[2048x256] x B[256x1024] ∘ C, 90% sparsity ----------------------
topo = generate_topology((2048 // V, 1024), 0.9, rng)
cv = cvse_from_csr_topology(topo, V, rng)
mask = ColumnVectorSparseMatrix(cv.shape, V, cv.row_ptr, cv.col_idx, None)

profiled = [
    profile(name, kern, kern.stats_for(mask, K))
    for name, kern in (
        ("MMA (reg)", OctetSddmmKernel(variant="reg")),
        ("MMA (shfl)", OctetSddmmKernel(variant="shfl")),
        ("MMA (arch)", OctetSddmmKernel(variant="arch")),
        ("WMMA", WmmaSddmmKernel()),
        ("CUDA (fpu)", FpuSddmmKernel()),
    )
]

print(f"\n\nSDDMM guideline profile (V={V}, 2048x{K}x1024 @ 90% — Table 3 layout)\n")
print(format_table(guidelines_table([rep for rep, _ in profiled])))
print_detail(profiled)
