"""Nonlocal correction (Eqs. 7-9): naive/BLAS agreement and properties."""

import numpy as np
import pytest

from repro.lfd import (
    NonlocalCorrector,
    WaveFunctionSet,
    nonlocal_correction_blas,
    nonlocal_correction_naive,
)


@pytest.fixture
def ref_unocc(grid8, rng):
    return WaveFunctionSet.random(grid8, 3, rng)


class TestAgreement:
    @pytest.mark.parametrize("normalize", [True, False])
    def test_naive_matches_blas(self, wf_small, ref_unocc, normalize):
        a, b = wf_small.copy(), wf_small.copy()
        nonlocal_correction_naive(a, ref_unocc, 0.15, 0.05, normalize=normalize)
        nonlocal_correction_blas(b, ref_unocc, 0.15, 0.05, normalize=normalize)
        assert a.max_abs_diff(b) < 1e-13

    def test_corrector_dispatch(self, wf_small, ref_unocc):
        a, b = wf_small.copy(), wf_small.copy()
        NonlocalCorrector(ref_unocc, 0.15, variant="naive").apply(a, 0.05)
        NonlocalCorrector(ref_unocc, 0.15, variant="blas").apply(b, 0.05)
        assert a.max_abs_diff(b) < 1e-13

    def test_corrector_blas_updates_in_place(self, wf_small, ref_unocc):
        """Repeated applies reuse the cached phi^H and write psi in place."""
        a, b = wf_small.copy(), wf_small.copy()
        storage = b.psi
        corr = NonlocalCorrector(ref_unocc, 0.15, variant="blas")
        for _ in range(3):
            nonlocal_correction_naive(a, ref_unocc, 0.15, 0.05)
            corr.apply(b, 0.05)
        assert b.psi is storage
        assert a.max_abs_diff(b) < 1e-13

    def test_blas_non_contiguous_storage(self, wf_small, ref_unocc):
        a, b = wf_small.copy(), wf_small.copy()
        b.psi = np.asfortranarray(b.psi)
        nonlocal_correction_naive(a, ref_unocc, 0.15, 0.05)
        nonlocal_correction_blas(b, ref_unocc, 0.15, 0.05)
        assert a.max_abs_diff(b) < 1e-13

    def test_blas_single_precision(self, grid8, rng):
        wf = WaveFunctionSet.random(grid8, 4, rng, dtype=np.complex64)
        ref = WaveFunctionSet.random(grid8, 3, rng, dtype=np.complex64)
        dp = wf.astype(np.complex128)
        nonlocal_correction_blas(wf, ref, 0.15, 0.05)
        nonlocal_correction_naive(dp, ref.astype(np.complex128), 0.15, 0.05)
        assert wf.psi.dtype == np.complex64
        assert np.abs(wf.psi - dp.psi).max() < 1e-6

    def test_blas_zero_orbital_stays_zero(self, wf_small, ref_unocc):
        wf_small.psi[..., 0] = 0.0
        nonlocal_correction_blas(wf_small, ref_unocc, 0.15, 0.05)
        assert np.all(wf_small.psi[..., 0] == 0.0)
        assert np.abs(wf_small.norms()[1:] - 1.0).max() < 1e-12

    def test_bad_variant(self, ref_unocc):
        with pytest.raises(ValueError):
            NonlocalCorrector(ref_unocc, 0.1, variant="cublas")


class TestProperties:
    def test_zero_scissor_identity_up_to_norm(self, wf_small, ref_unocc):
        a = wf_small.copy()
        nonlocal_correction_blas(a, ref_unocc, 0.0, 0.05)
        assert a.max_abs_diff(wf_small) < 1e-12

    def test_normalized_output(self, wf_small, ref_unocc):
        nonlocal_correction_blas(wf_small, ref_unocc, 0.4, 0.1)
        assert np.abs(wf_small.norms() - 1.0).max() < 1e-12

    def test_orthogonal_subspace_untouched(self, grid8, rng):
        """Orbitals orthogonal to the reference block are unchanged."""
        big = WaveFunctionSet.random(grid8, 6, rng)
        ref = WaveFunctionSet(grid8, 2, data=big.psi[..., :2])
        probe = WaveFunctionSet(grid8, 2, data=big.psi[..., 4:6])
        before = probe.copy()
        nonlocal_correction_blas(probe, ref, 0.3, 0.1)
        assert probe.max_abs_diff(before) < 1e-12

    def test_first_order_in_dt(self, wf_small, ref_unocc):
        """The correction magnitude scales ~ linearly with dt (small dt)."""
        a, b = wf_small.copy(), wf_small.copy()
        nonlocal_correction_blas(a, ref_unocc, 0.2, 1e-3, normalize=False)
        nonlocal_correction_blas(b, ref_unocc, 0.2, 2e-3, normalize=False)
        da = np.abs(a.psi - wf_small.psi).max()
        db = np.abs(b.psi - wf_small.psi).max()
        assert db / da == pytest.approx(2.0, rel=1e-6)

    def test_grid_mismatch(self, wf_small, grid12, rng):
        ref = WaveFunctionSet.random(grid12, 2, rng)
        with pytest.raises(ValueError):
            nonlocal_correction_blas(wf_small, ref, 0.1, 0.05)


class TestFusedFactor:
    """NL(dt2) . NL(dt1) as one factor at a sub-step boundary."""

    @staticmethod
    def skewed_reference(grid, rng):
        """A reference that is neither orthogonal nor normalized."""
        ref = WaveFunctionSet.random(grid, 3, rng, orthonormal=False)
        ref.psi[..., 1] += 0.6 * ref.psi[..., 0]
        ref.psi *= np.array([1.0, 1.7, 0.4])
        gram = ref.overlap_matrix()
        assert np.abs(gram - np.eye(3)).max() > 0.5
        return ref

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("dts", [(0.05, 0.05), (0.03, -0.07)])
    def test_matches_sequential_halves(self, wf_small, grid8, rng,
                                       normalize, dts):
        ref = self.skewed_reference(grid8, rng)
        a, b = wf_small.copy(), wf_small.copy()
        nonlocal_correction_blas(a, ref, 0.4, dts[0], normalize=False)
        nonlocal_correction_blas(a, ref, 0.4, dts[1], normalize=normalize)
        nonlocal_correction_blas(b, ref, 0.4, dts[0], normalize=normalize,
                                 next_dt=dts[1])
        assert a.max_abs_diff(b) <= 1e-13

    @pytest.mark.parametrize("variant", ["blas", "blas_blocked", "naive"])
    def test_corrector_fuses_every_variant(self, wf_small, grid8, rng,
                                           variant):
        """Every variant applies the pair; ``blas`` caches the Gram matrix."""
        ref = self.skewed_reference(grid8, rng)
        a, b = wf_small.copy(), wf_small.copy()
        nonlocal_correction_naive(a, ref, 0.4, 0.05, normalize=False)
        nonlocal_correction_naive(a, ref, 0.4, 0.02)
        corr = NonlocalCorrector(ref, 0.4, variant=variant, orb_block=2)
        corr.apply(b, 0.05, next_dt=0.02)
        assert a.max_abs_diff(b) <= 1e-13
        if variant == "blas":
            assert np.allclose(corr._gram, ref.overlap_matrix(), atol=1e-14)

    def test_one_span_per_fused_factor(self, wf_small, ref_unocc):
        from repro.obs import tracing

        corr = NonlocalCorrector(ref_unocc, 0.15)
        with tracing() as tr:
            corr.apply(wf_small, 0.05, normalize=False, next_dt=0.05)
        assert [r.category for r in tr.records] == ["nonlocal"]

    @pytest.mark.parametrize("variant, pairs", [
        ("blas", 1), ("blas_blocked", 2), ("naive", 2),
    ])
    def test_fused_charge_counts_every_gemm_pair(self, wf_small, ref_unocc,
                                                 variant, pairs):
        """``blas`` fuses into one GEMM pair; the others run two halves."""
        from repro.obs import tracing

        corr = NonlocalCorrector(ref_unocc, 0.15, variant=variant,
                                 orb_block=2)
        with tracing() as tr:
            corr.apply(wf_small, 0.05, normalize=False, next_dt=0.05)
        one = corr.flop_count(wf_small.norb, wf_small.grid.npoints)
        assert tr.records[0].flops == pytest.approx(pairs * one)


class TestFlushedNorms:
    """Norms a half-factor would leave, without applying it."""

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("dt", [0.05, -0.3])
    def test_match_applied_factor(self, wf_small, grid8, rng, normalize, dt):
        ref = TestFusedFactor.skewed_reference(grid8, rng)
        wf_small.psi[..., 1] *= 1.8         # off unit norm
        wf_small.psi[..., 3] = 0.0          # stays zero under the factor
        corr = NonlocalCorrector(ref, 0.4)
        before = wf_small.psi.copy()
        norms = corr.flushed_norms(wf_small, dt, normalize)
        assert np.array_equal(wf_small.psi, before)
        applied = wf_small.copy()
        corr.apply(applied, dt, normalize=normalize)
        assert np.abs(norms - applied.norms()).max() <= 1e-13
        assert norms[3] == 0.0

    @pytest.mark.parametrize("normalize", [True, False])
    def test_non_finite_column_keeps_non_finite_norm(self, wf_small,
                                                     ref_unocc, normalize):
        wf_small.psi[0, 0, 0, 2] = np.nan
        norms = NonlocalCorrector(ref_unocc, 0.15).flushed_norms(
            wf_small, 0.05, normalize)
        assert np.isnan(norms[2])
        assert np.all(np.isfinite(np.delete(norms, 2)))


class TestCostModel:
    def test_flop_count_positive_and_scales(self, ref_unocc):
        c = NonlocalCorrector(ref_unocc, 0.1)
        f1 = c.flop_count(norb=8, ngrid=1000)
        f2 = c.flop_count(norb=16, ngrid=1000)
        assert f2 == pytest.approx(2 * f1)

    def test_byte_count_scales_with_itemsize(self, ref_unocc):
        c = NonlocalCorrector(ref_unocc, 0.1)
        assert c.byte_count(8, 1000, 16) == pytest.approx(
            2 * c.byte_count(8, 1000, 8)
        )
