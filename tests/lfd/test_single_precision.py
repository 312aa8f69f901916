"""Single-precision (complex64) end-to-end paths (the SP columns of Table II)."""

import numpy as np
import pytest

from repro.lfd import (
    NonlocalCorrector,
    PropagatorConfig,
    QDPropagator,
    WaveFunctionSet,
    kinetic_step,
)


@pytest.fixture
def sp_setup(grid8, rng):
    wf = WaveFunctionSet.random(grid8, 4, rng, dtype=np.complex64)
    vloc = 0.3 * rng.standard_normal(grid8.shape)
    ref = WaveFunctionSet.random(grid8, 2, rng, dtype=np.complex64)
    return wf, vloc, ref


class TestSPKernels:
    @pytest.mark.parametrize("variant", ["baseline", "interchange",
                                         "blocked", "collapsed", "gemm"])
    def test_kinetic_step_keeps_dtype_and_norm(self, sp_setup, variant):
        wf, _, _ = sp_setup
        kinetic_step(wf, 0.03, variant=variant)
        assert wf.psi.dtype == np.complex64
        assert np.abs(wf.norms() - 1.0).max() < 1e-5

    def test_sp_tracks_dp_trajectory(self, sp_setup):
        """SP propagation stays within single-precision distance of DP."""
        wf_sp, vloc, ref = sp_setup
        wf_dp = wf_sp.astype(np.complex128)
        for _ in range(20):
            kinetic_step(wf_sp, 0.05)
            kinetic_step(wf_dp, 0.05)
        diff = np.abs(
            wf_sp.psi.astype(np.complex128) - wf_dp.psi
        ).max()
        assert diff < 5e-5  # accumulated SP round-off over 20 steps

    def test_full_propagator_sp(self, sp_setup):
        wf, vloc, ref = sp_setup
        corr = NonlocalCorrector(ref, 0.1)
        prop = QDPropagator(wf, vloc, PropagatorConfig(dt=0.05), corrector=corr)
        prop.run(30)
        assert wf.psi.dtype == np.complex64
        assert np.abs(wf.norms() - 1.0).max() < 1e-4

    def test_sp_memory_is_half(self, grid8, rng):
        sp = WaveFunctionSet.random(grid8, 4, rng, dtype=np.complex64)
        dp = WaveFunctionSet.random(grid8, 4, rng, dtype=np.complex128)
        assert sp.nbytes * 2 == dp.nbytes
