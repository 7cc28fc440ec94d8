"""Sanitizer harness: kernel cases x problem suites.

Every kernel shipped in :mod:`repro.kernels` is registered here as a
:class:`KernelCase` — a recipe that materialises a seeded problem,
runs the checkers that apply to that kernel's design, and returns a
:class:`~repro.sanitizer.findings.SanitizerReport`:

* **statcheck** runs for every case (all kernels author ``KernelStats``);
* **memcheck** runs where a trace generator exists
  (:mod:`repro.perfmodel.trace`: octet SpMM, Blocked-ELL, SDDMM, GEMM);
* **racecheck/synccheck** runs where the kernel stages through shared
  memory (plans derived from the same tile constants the stats use —
  single-warp CTAs are still bounds-checked);
* **ownership** runs for the HMMA octet kernels, whose simulate paths
  expose the register-level fragment schedule, and — as
  :mod:`repro.sanitizer.plancheck` — over every compiled execution
  plan (:mod:`repro.plans`) of the simulated kernels.

``sanitize(names, suite)`` is the engine behind
``python -m repro.cli sanitize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

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
from . import memcheck, plancheck, racecheck, statcheck
from .findings import Checker, SanitizerReport

__all__ = ["ProblemSpec", "SUITES", "KERNEL_CASES", "sanitize"]

_EB = 2  # the traced kernels are half-precision designs


@dataclass(frozen=True)
class ProblemSpec:
    """One seeded problem instance of the ``(M x K) x (K x N)`` family."""

    name: str
    m: int
    k: int
    n: int
    v: int            # column-vector length of the sparse operand
    density: float    # vector-level density of the sparse operand
    seed: int

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


#: Problem suites.  Geometry note: N is kept a multiple of 128 and K a
#: multiple of 64 so the LDG.128 transaction-shape contracts of
#: :mod:`repro.sanitizer.memcheck` are *active* (ragged shapes disable
#: them) — the sanitizer should exercise the strict contracts, the
#: parity tests already cover ragged geometry.
SUITES: Dict[str, Tuple[ProblemSpec, ...]] = {
    "smoke": (
        ProblemSpec("smoke-s", m=32, k=64, n=128, v=4, density=0.4, seed=101),
    ),
    "default": (
        ProblemSpec("default-s", m=64, k=64, n=128, v=4, density=0.3, seed=211),
        ProblemSpec("default-v8", m=64, k=128, n=128, v=8, density=0.25, seed=223),
    ),
    "full": (
        ProblemSpec("full-s", m=64, k=64, n=128, v=4, density=0.3, seed=211),
        ProblemSpec("full-v8", m=64, k=128, n=128, v=8, density=0.25, seed=223),
        ProblemSpec("full-m", m=128, k=192, n=256, v=4, density=0.2, seed=307),
    ),
}


# --------------------------------------------------------------------- #
# problem materialisation (seeded; one construction per spec)
# --------------------------------------------------------------------- #
def _spmm_problem(p: ProblemSpec) -> Tuple[ColumnVectorSparseMatrix, np.ndarray]:
    rng = p.rng()
    keep = rng.random((p.m // p.v, p.k)) < p.density
    d = (rng.uniform(-1, 1, (p.m // p.v, p.v, p.k)) * keep[:, None, :]).reshape(p.m, p.k)
    a = ColumnVectorSparseMatrix.from_dense(d.astype(np.float16), p.v)
    b = rng.uniform(-1, 1, (p.k, p.n)).astype(np.float16)
    return a, b


def _sddmm_problem(p: ProblemSpec) -> Tuple[np.ndarray, np.ndarray, ColumnVectorSparseMatrix]:
    rng = p.rng()
    a = rng.uniform(-1, 1, (p.m, p.k)).astype(np.float16)
    b = rng.uniform(-1, 1, (p.k, p.n)).astype(np.float16)
    mask_grp = rng.random((p.m // p.v, p.n)) < p.density
    mask = ColumnVectorSparseMatrix.mask_from_dense(np.repeat(mask_grp, p.v, axis=0), p.v)
    return a, b, mask


def _ell_problem(p: ProblemSpec) -> Tuple[BlockedEllMatrix, np.ndarray]:
    rng = p.rng()
    block = 16
    m = ceil_div(p.m, block) * block
    k = ceil_div(p.k, block) * block
    ell = BlockedEllMatrix.random((m, k), block, sparsity=1.0 - p.density, rng=rng)
    b = rng.uniform(-1, 1, (k, p.n)).astype(np.float16)
    return ell, b


def _csr_problem(p: ProblemSpec) -> CSRMatrix:
    rng = p.rng()
    d = rng.uniform(-1, 1, (p.m, p.k)) * (rng.random((p.m, p.k)) < p.density)
    return CSRMatrix.from_dense(d.astype(np.float16))


# --------------------------------------------------------------------- #
# shared-memory plans from the kernels' staging constants
# --------------------------------------------------------------------- #
def _staging_plan_checks(report: SanitizerReport, plan: racecheck.SharedPlan) -> None:
    report.ran(Checker.RACECHECK)
    report.ran(Checker.SYNCCHECK)
    findings, counters = racecheck.check_shared_plan(plan)
    report.extend(findings)
    for key, n in counters.items():
        report.count(key, n)


def _statcheck(report: SanitizerReport, stats) -> None:
    report.ran(Checker.STATCHECK)
    findings, counters = statcheck.check_stats(stats)
    report.extend(findings)
    for key, n in counters.items():
        report.count(key, n)


def _memcheck(report: SanitizerReport, stream, amap) -> None:
    report.ran(Checker.MEMCHECK)
    findings, counters = memcheck.check_stream(stream, amap)
    report.extend(findings)
    for key, n in counters.items():
        report.count(key, n)


def _plancheck(report: SanitizerReport, result) -> None:
    report.ran(Checker.OWNERSHIP)
    findings, counters = result
    report.extend(findings)
    for key, n in counters.items():
        report.count(key, n)


# --------------------------------------------------------------------- #
# kernel cases
# --------------------------------------------------------------------- #
def _case_spmm_octet(p: ProblemSpec) -> SanitizerReport:
    a, b = _spmm_problem(p)
    report = SanitizerReport(kernel="spmm-mma-octet")
    _statcheck(report, OctetSpmmKernel().stats_for(a, p.n))
    _memcheck(
        report,
        trace.octet_spmm_cta_sectors(a, p.n),
        memcheck.spmm_octet_address_map(a, p.n),
    )
    report.ran(Checker.OWNERSHIP)
    findings, counters = racecheck.check_spmm_octet_ownership(
        OctetSpmmKernel(simulate=True), a, b
    )
    report.extend(findings)
    for key, n in counters.items():
        report.count(key, n)
    _plancheck(report, plancheck.check_spmm_octet_plan(OctetSpmmKernel(simulate=True), a))
    # single-warp CTA: the LHS stage is race-free by construction, but
    # its accesses must stay inside the declared allocation
    kern = OctetSpmmKernel
    stage = kern.TILE_K * a.vector_length * _EB
    strides = int(np.ceil(a.vector_row_nnz().max() / kern.TILE_K)) if a.nnz_vectors else 1
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            "spmm-mma-octet", warps=1, shared_bytes=stage, stage_bytes=stage,
            k_steps=max(1, strides),
        ),
    )
    return report


def _case_spmm_wmma(p: ProblemSpec) -> SanitizerReport:
    a, _ = _spmm_problem(p)
    report = SanitizerReport(kernel="spmm-mma-wmma")
    stats = WmmaSpmmKernel().stats_for(a, p.n)
    _statcheck(report, stats)
    _plancheck(report, plancheck.check_spmm_wmma_plan(WmmaSpmmKernel(simulate=True), a))
    stage = int(stats.resources.shared_bytes_per_cta)
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            "spmm-mma-wmma", warps=1, shared_bytes=stage, stage_bytes=stage,
            k_steps=max(1, ceil_div(int(a.vector_row_nnz().max() or 1), WmmaSpmmKernel.TILE_K)),
        ),
    )
    return report


def _case_spmm_fpu(p: ProblemSpec) -> SanitizerReport:
    a, _ = _spmm_problem(p)
    report = SanitizerReport(kernel="spmm-fpu")
    stats = FpuSpmmKernel().stats_for(a, p.n)
    _statcheck(report, stats)
    stage = int(stats.resources.shared_bytes_per_cta)
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            "spmm-fpu", warps=1, shared_bytes=stage, stage_bytes=stage,
            k_steps=max(1, ceil_div(int(a.vector_row_nnz().max() or 1), FpuSpmmKernel.TILE_K)),
        ),
    )
    return report


def _case_blocked_ell(p: ProblemSpec) -> SanitizerReport:
    ell, _ = _ell_problem(p)
    report = SanitizerReport(kernel="cusparse-blocked-ell")
    stats = BlockedEllSpmmKernel().stats_for(ell, p.n)
    _statcheck(report, stats)
    _memcheck(
        report,
        trace.blocked_ell_cta_sectors(ell, p.n),
        memcheck.blocked_ell_address_map(ell, p.n),
    )
    # 4-warp CTA staging A blocks + B tiles behind barriers (§3.2's
    # barrier-heavy pattern — the synccheck surface)
    warps = BlockedEllSpmmKernel.CTA_SIZE // 32
    shared = int(stats.resources.shared_bytes_per_cta)
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            "cusparse-blocked-ell", warps=warps, shared_bytes=shared,
            stage_bytes=shared, k_steps=max(1, ell.ell_width),
        ),
    )
    return report


def _case_gemm(p: ProblemSpec) -> SanitizerReport:
    report = SanitizerReport(kernel="dense-gemm")
    kern = DenseGemmKernel()
    stats = kern.stats_for_shape(p.m, p.k, p.n)
    _statcheck(report, stats)
    tile_m, tile_n, cta = kern._pick_tile(p.m, p.n)
    _memcheck(
        report,
        trace.gemm_cta_sectors(p.m, p.k, p.n, tile_m=tile_m, tile_n=tile_n),
        memcheck.gemm_address_map(p.m, p.k, p.n),
    )
    # double-buffered staging: each k-step fills one half while the
    # other is read — modelled as one stage of half the allocation
    shared = int(stats.resources.shared_bytes_per_cta)
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            "dense-gemm", warps=cta // 32, shared_bytes=shared,
            stage_bytes=shared // 2, k_steps=ceil_div(p.k, kern.TILE_K),
        ),
    )
    return report


def _sddmm_octet_case(variant: str) -> Callable[[ProblemSpec], SanitizerReport]:
    def run(p: ProblemSpec) -> SanitizerReport:
        a, b, mask = _sddmm_problem(p)
        kern = OctetSddmmKernel(variant=variant, simulate=True)
        report = SanitizerReport(kernel=kern.name)
        _statcheck(report, OctetSddmmKernel(variant=variant).stats_for(mask, p.k))
        _memcheck(
            report,
            trace.octet_sddmm_cta_sectors(mask, p.k),
            memcheck.sddmm_address_map(mask, p.k),
        )
        report.ran(Checker.OWNERSHIP)
        findings, counters = racecheck.check_sddmm_octet_ownership(kern, a, b, mask)
        report.extend(findings)
        for key, n in counters.items():
            report.count(key, n)
        _plancheck(report, plancheck.check_sddmm_octet_plan(kern, mask, p.k))
        return report

    return run


def _case_sddmm_wmma(p: ProblemSpec) -> SanitizerReport:
    _, _, mask = _sddmm_problem(p)
    report = SanitizerReport(kernel="sddmm-mma-wmma")
    stats = WmmaSddmmKernel().stats_for(mask, p.k)
    _statcheck(report, stats)
    _plancheck(report, plancheck.check_sddmm_wmma_plan(WmmaSddmmKernel(simulate=True), mask, p.k))
    _memcheck(
        report,
        trace.wmma_sddmm_cta_sectors(mask, p.k),
        memcheck.sddmm_address_map(mask, p.k),
    )
    stage = int(stats.resources.shared_bytes_per_cta)
    _staging_plan_checks(
        report,
        racecheck.staged_plan(
            "sddmm-mma-wmma", warps=1, shared_bytes=stage, stage_bytes=stage,
            k_steps=max(1, ceil_div(p.k, WmmaSddmmKernel.TILE_K)),
        ),
    )
    return report


def _case_sddmm_fpu(p: ProblemSpec) -> SanitizerReport:
    _, _, mask = _sddmm_problem(p)
    report = SanitizerReport(kernel="sddmm-fpu")
    _statcheck(report, FpuSddmmKernel().stats_for(mask, p.k))
    return report


def _case_softmax(p: ProblemSpec) -> SanitizerReport:
    a, _ = _spmm_problem(p)
    report = SanitizerReport(kernel="softmax-cvse")
    _statcheck(report, SparseSoftmaxKernel().stats_for(a))
    return report


def _case_csr_spmm(p: ProblemSpec) -> SanitizerReport:
    csr = _csr_problem(p)
    report = SanitizerReport(kernel="cusparse-csr-spmm-sp")
    _statcheck(report, CusparseCsrSpmmKernel().stats_for(csr, p.n))
    return report


def _case_csr_sddmm(p: ProblemSpec) -> SanitizerReport:
    csr = _csr_problem(p)
    report = SanitizerReport(kernel="cusparse-sddmm-sp")
    _statcheck(report, CusparseSddmmKernel().stats_for(csr, p.k))
    return report


@dataclass(frozen=True)
class KernelCase:
    """One sanitizable kernel: a name and its per-problem runner."""

    name: str
    run: Callable[[ProblemSpec], SanitizerReport]


KERNEL_CASES: Dict[str, KernelCase] = {
    c.name: c
    for c in (
        KernelCase("spmm-octet", _case_spmm_octet),
        KernelCase("spmm-wmma", _case_spmm_wmma),
        KernelCase("spmm-fpu", _case_spmm_fpu),
        KernelCase("spmm-blocked-ell", _case_blocked_ell),
        KernelCase("dense-gemm", _case_gemm),
        KernelCase("sddmm-octet-reg", _sddmm_octet_case("reg")),
        KernelCase("sddmm-octet-shfl", _sddmm_octet_case("shfl")),
        KernelCase("sddmm-octet-arch", _sddmm_octet_case("arch")),
        KernelCase("sddmm-wmma", _case_sddmm_wmma),
        KernelCase("sddmm-fpu", _case_sddmm_fpu),
        KernelCase("softmax", _case_softmax),
        KernelCase("cusparse-csr-spmm", _case_csr_spmm),
        KernelCase("cusparse-sddmm", _case_csr_sddmm),
    )
}


def sanitize(
    names: Sequence[str] | None = None, suite: str = "default"
) -> List[SanitizerReport]:
    """Run the sanitizer over ``names`` (default: every case) x ``suite``.

    Unknown kernel or suite names raise ``ValueError`` listing the
    valid choices (mirroring ``run_all --only``).  One report is
    returned per (kernel, problem) pair, problems merged per kernel:
    a kernel's report aggregates the findings over every problem of
    the suite.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; valid choices: {sorted(SUITES)}")
    if names:
        unknown = sorted(set(names) - set(KERNEL_CASES))
        if unknown:
            raise ValueError(
                f"unknown kernels: {unknown}; valid choices: {sorted(KERNEL_CASES)}"
            )
        selected = [KERNEL_CASES[n] for n in names]
    else:
        selected = list(KERNEL_CASES.values())

    reports: List[SanitizerReport] = []
    with obs_tracing.span("sanitize", suite=suite, cases=len(selected)):
        for case in selected:
            merged: SanitizerReport | None = None
            with obs_tracing.span(f"sanitize.{case.name}", suite=suite) as sp:
                for problem in SUITES[suite]:
                    rep = case.run(problem)
                    if merged is None:
                        merged = rep
                    else:
                        merged.extend(rep.findings)
                        for chk in rep.checks_run:
                            if chk not in merged.checks_run:
                                merged.checks_run.append(chk)
                        for key, n in rep.counters.items():
                            merged.count(key, n)
                assert merged is not None
                sp.set(findings=len(merged.findings))
            if obs_metrics.enabled():
                obs_metrics.counter_add("sanitizer.cases")
                obs_metrics.counter_add("sanitizer.findings", len(merged.findings))
            reports.append(merged)
    return reports
