"""Edge-case coverage for the kernels: ragged shapes, residues, extremes."""

import re

import numpy as np
import pytest

from repro.formats import ColumnVectorSparseMatrix
from repro.kernels import (
    FpuSddmmKernel,
    FpuSpmmKernel,
    OctetSddmmKernel,
    OctetSpmmKernel,
    WmmaSddmmKernel,
    WmmaSpmmKernel,
    sddmm,
    sddmm_functional,
    spmm,
    spmm_functional,
)

RNG = np.random.default_rng(99)


def cvse_from(dense, v):
    return ColumnVectorSparseMatrix.from_dense(np.asarray(dense, dtype=np.float16), v)


def random_vector_sparse(m, k, v, density, rng=RNG):
    keep = rng.random((m // v, k)) < density
    d = (rng.uniform(-1, 1, (m // v, v, k)) * keep[:, None, :]).reshape(m, k)
    return cvse_from(d, v), d.astype(np.float16)


def check_spmm(kernel_cls, a, d, b, **kw):
    out = kernel_cls(**kw).run(a, b).output
    ref = d.astype(np.float32) @ b.astype(np.float32)
    assert np.allclose(out.astype(np.float32), ref, atol=0.06)


class TestSpmmRaggedShapes:
    @pytest.mark.parametrize("n", [1, 7, 63, 65, 100])
    def test_octet_odd_n(self, n):
        a, d = random_vector_sparse(32, 40, 4, 0.3)
        b = RNG.uniform(-1, 1, (40, n)).astype(np.float16)
        check_spmm(OctetSpmmKernel, a, d, b)

    @pytest.mark.parametrize("k", [1, 3, 33, 130])
    def test_octet_odd_k(self, k):
        a, d = random_vector_sparse(16, k, 4, 0.5)
        b = RNG.uniform(-1, 1, (k, 64)).astype(np.float16)
        check_spmm(OctetSpmmKernel, a, d, b)

    @pytest.mark.parametrize("cls", [OctetSpmmKernel, FpuSpmmKernel, WmmaSpmmKernel])
    def test_single_vector_row(self, cls):
        a, d = random_vector_sparse(4, 16, 4, 0.8)
        b = RNG.uniform(-1, 1, (16, 32)).astype(np.float16)
        check_spmm(cls, a, d, b)

    def test_fully_dense_input(self):
        a, d = random_vector_sparse(16, 24, 4, 1.0)
        assert a.sparsity == 0.0
        b = RNG.uniform(-1, 1, (24, 64)).astype(np.float16)
        check_spmm(OctetSpmmKernel, a, d, b)

    def test_single_nonzero_vector(self):
        d = np.zeros((8, 16), dtype=np.float16)
        d[0:4, 5] = 1.0
        a = cvse_from(d, 4)
        b = RNG.uniform(-1, 1, (16, 64)).astype(np.float16)
        check_spmm(OctetSpmmKernel, a, d, b)

    def test_simulated_on_odd_shapes(self):
        a, d = random_vector_sparse(8, 11, 4, 0.6)
        b = RNG.uniform(-1, 1, (11, 70)).astype(np.float16)
        out = OctetSpmmKernel(simulate=True).run(a, b).output
        ref = d.astype(np.float32) @ b.astype(np.float32)
        assert np.allclose(out.astype(np.float32), ref, atol=0.06)

    def test_dispatch_passes_simulate(self):
        a, d = random_vector_sparse(8, 12, 4, 0.5)
        b = RNG.uniform(-1, 1, (12, 64)).astype(np.float16)
        out = spmm(a, b, kernel="octet", simulate=True).output
        assert np.allclose(
            out.astype(np.float32), d.astype(np.float32) @ b.astype(np.float32), atol=0.06
        )


class TestSddmmRaggedShapes:
    def _mask(self, m, n, v, density, rng=RNG):
        grp = rng.random((m // v, n)) < density
        return ColumnVectorSparseMatrix.mask_from_dense(np.repeat(grp, v, axis=0), v)

    @pytest.mark.parametrize("k", [1, 5, 63, 65, 200])
    def test_octet_odd_k(self, k):
        m, n, v = 32, 96, 4
        a = RNG.uniform(-1, 1, (m, k)).astype(np.float16)
        b = RNG.uniform(-1, 1, (k, n)).astype(np.float16)
        mask = self._mask(m, n, v, 0.2)
        out = sddmm(a, b, mask).output
        ref = (a.astype(np.float32) @ b.astype(np.float32)) * mask.mask_dense()
        assert np.allclose(out.to_dense(np.float32), ref, atol=0.15)

    @pytest.mark.parametrize("n", [8, 31, 33, 100])
    def test_octet_odd_n(self, n):
        m, k, v = 16, 48, 4
        a = RNG.uniform(-1, 1, (m, k)).astype(np.float16)
        b = RNG.uniform(-1, 1, (k, n)).astype(np.float16)
        mask = self._mask(m, n, v, 0.3)
        out = sddmm(a, b, mask).output
        ref = (a.astype(np.float32) @ b.astype(np.float32)) * mask.mask_dense()
        assert np.allclose(out.to_dense(np.float32), ref, atol=0.15)

    def test_empty_mask(self):
        m, k, n, v = 16, 24, 64, 4
        a = RNG.uniform(-1, 1, (m, k)).astype(np.float16)
        b = RNG.uniform(-1, 1, (k, n)).astype(np.float16)
        mask = self._mask(m, n, v, 0.0)
        out = sddmm(a, b, mask).output
        assert out.nnz_vectors == 0

    def test_full_mask(self):
        m, k, n, v = 8, 16, 32, 4
        a = RNG.uniform(-1, 1, (m, k)).astype(np.float16)
        b = RNG.uniform(-1, 1, (k, n)).astype(np.float16)
        mask = self._mask(m, n, v, 1.0)
        out = sddmm(a, b, mask).output
        ref = a.astype(np.float32) @ b.astype(np.float32)
        assert np.allclose(out.to_dense(np.float32), ref, atol=0.15)

    def test_simulate_odd_k(self):
        m, k, n, v = 16, 13, 64, 4
        a = RNG.uniform(-1, 1, (m, k)).astype(np.float16)
        b = RNG.uniform(-1, 1, (k, n)).astype(np.float16)
        mask = self._mask(m, n, v, 0.3)
        out = OctetSddmmKernel(variant="arch", simulate=True).run(a, b, mask).output
        ref = (a.astype(np.float32) @ b.astype(np.float32)) * mask.mask_dense()
        assert np.allclose(out.to_dense(np.float32), ref, atol=0.15)


class TestStatsConsistency:
    """Invariants every kernel's stats must satisfy, regardless of input."""

    def _all_spmm_stats(self, a, n):
        for cls in (OctetSpmmKernel, FpuSpmmKernel, WmmaSpmmKernel):
            yield cls().stats_for(a, n)

    def _all_sddmm_stats(self, mask, k):
        for cls in (FpuSddmmKernel, WmmaSddmmKernel):
            yield cls().stats_for(mask, k)
        for variant in ("reg", "shfl", "arch"):
            yield OctetSddmmKernel(variant=variant).stats_for(mask, k)

    @pytest.mark.parametrize("density", [0.02, 0.3, 1.0])
    def test_spmm_invariants(self, density):
        a, _ = random_vector_sparse(64, 96, 4, density)
        for st in self._all_spmm_stats(a, 128):
            gm = st.global_mem
            assert gm.load_sectors >= 0 and gm.bytes_l2_to_l1 >= 0
            assert gm.bytes_dram_to_l2 <= gm.bytes_l2_to_l1 + 1e-6
            assert st.instructions.total > 0
            assert st.flops == pytest.approx(2.0 * a.nnz * 128, rel=1e-6)
            assert st.work_imbalance >= 1.0
            assert st.launch.num_ctas >= 1

    @pytest.mark.parametrize("density", [0.05, 0.5])
    def test_sddmm_invariants(self, density):
        grp = RNG.random((16, 96)) < density
        mask = ColumnVectorSparseMatrix.mask_from_dense(np.repeat(grp, 4, axis=0), 4)
        for st in self._all_sddmm_stats(mask, 128):
            gm = st.global_mem
            assert gm.bytes_dram_to_l2 <= gm.bytes_l2_to_l1 + 1e-6
            assert st.flops == pytest.approx(2.0 * mask.nnz * 128, rel=1e-6)
            assert st.resources.registers_per_thread <= 255

    def test_spmm_grid_formula(self):
        a, _ = random_vector_sparse(64, 32, 4, 0.5)
        st = OctetSpmmKernel().stats_for(a, 200)
        assert st.launch.grid_x == 16          # M/V
        assert st.launch.grid_y == 4           # ceil(200/64)

    def test_sddmm_grid_formula(self):
        grp = RNG.random((8, 100)) < 0.5
        mask = ColumnVectorSparseMatrix.mask_from_dense(np.repeat(grp, 4, axis=0), 4)
        st = OctetSddmmKernel().stats_for(mask, 64)
        assert st.launch.grid_x == 8           # M/V
        assert st.launch.grid_y == 4           # ceil(100/32)

    def test_stats_scale_with_n_tiles(self):
        a, _ = random_vector_sparse(64, 96, 4, 0.3)
        s1 = OctetSpmmKernel().stats_for(a, 64)
        s2 = OctetSpmmKernel().stats_for(a, 128)
        assert s2.instructions.total > s1.instructions.total
        assert s2.flops == pytest.approx(2 * s1.flops)


class TestDenseOperandRank:
    """A non-2-D dense operand is a typed error naming the operand."""

    A_SP, _ = random_vector_sparse(8, 16, 4, 0.5)
    MASK = ColumnVectorSparseMatrix.mask_from_dense(np.ones((8, 12)), 4)
    A2 = np.ones((8, 16), dtype=np.float16)
    B2 = np.ones((16, 12), dtype=np.float16)

    @pytest.mark.parametrize("call, operand, shape", [
        (lambda s: spmm_functional(s.A_SP, np.ones(16)), "B", (16,)),
        (lambda s: spmm(s.A_SP, np.ones(16)), "B", (16,)),
        (lambda s: spmm(s.A_SP, np.ones((16, 4, 2))), "B", (16, 4, 2)),
        (lambda s: sddmm_functional(np.ones(16), s.B2, s.MASK), "A", (16,)),
        (lambda s: sddmm(np.ones(16), s.B2, s.MASK), "A", (16,)),
        (lambda s: sddmm(s.A2, np.ones((16, 12, 1)), s.MASK), "B", (16, 12, 1)),
    ], ids=["spmm_functional-1d", "spmm-1d", "spmm-3d",
            "sddmm_functional-1d", "sddmm-1d", "sddmm-3d"])
    def test_non_2d_operand_raises_value_error(self, call, operand, shape):
        with pytest.raises(ValueError, match=rf"^{operand} must be a 2-D .*shape {re.escape(str(shape))}$"):
            call(self)
