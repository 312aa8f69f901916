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
