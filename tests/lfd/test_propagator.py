"""Full QD propagator (Eq. 6) tests."""

import numpy as np
import pytest

from repro.lfd import (
    NonlocalCorrector,
    PropagatorConfig,
    QDPropagator,
    WaveFunctionSet,
)


@pytest.fixture
def setup(grid8, rng):
    wf = WaveFunctionSet.random(grid8, 4, rng)
    vloc = 0.3 * rng.standard_normal(grid8.shape)
    ref = WaveFunctionSet.random(grid8, 2, rng)
    corr = NonlocalCorrector(ref, 0.12)
    return wf, vloc, corr


class TestConfig:
    def test_bad_dt(self):
        with pytest.raises(ValueError):
            PropagatorConfig(dt=0.0)

    def test_defaults(self):
        cfg = PropagatorConfig()
        assert cfg.kin_variant == "gemm"
        assert cfg.nl_normalize


class TestPropagation:
    def test_norm_conservation_long_run(self, setup):
        wf, vloc, corr = setup
        prop = QDPropagator(wf, vloc, PropagatorConfig(dt=0.04), corrector=corr)
        prop.run(100)
        assert np.abs(wf.norms() - 1.0).max() < 1e-11
        assert prop.steps_taken == 100
        assert prop.time == pytest.approx(4.0)

    def test_eigenstate_acquires_phase_only(self, grid8):
        """An eigenstate of h_loc stays stationary up to a global phase.

        Use a constant potential: plane waves are exact eigenstates of
        both the kinetic stencil and the potential.
        """
        v0 = 0.7
        vloc = np.full(grid8.shape, v0)
        k = 2 * np.pi * 1 / 8
        xs = np.arange(8)
        plane = np.exp(1j * k * xs)[:, None, None] * np.ones((8, 8, 8))
        wf = WaveFunctionSet(grid8, 1, data=plane[..., None])
        wf.normalize()
        rho0 = np.abs(wf.orbital(0)) ** 2
        prop = QDPropagator(wf, vloc, PropagatorConfig(dt=0.05))
        prop.run(40)
        # The even/odd pair splitting is only approximately translation
        # invariant, so the density picks up an O(dt^2) ripple; verify it
        # is at the splitting-error scale, far below the density itself.
        err = np.abs(np.abs(wf.orbital(0)) ** 2 - rho0).max()
        assert err < 5e-3 * rho0.max()

    def test_laser_drives_current(self, setup, grid8):
        from repro.lfd.observables import current_expectation

        wf, vloc, _ = setup
        a_of_t = lambda t: (10.0 * np.sin(0.5 * t), 0.0, 0.0)
        prop = QDPropagator(wf, vloc, PropagatorConfig(dt=0.05), a_of_t=a_of_t)
        j0 = current_expectation(wf, np.ones(wf.norb))[0]
        prop.run(60)
        j1 = current_expectation(wf, np.ones(wf.norb))[0]
        assert abs(j1 - j0) > 1e-4

    def test_without_field_matches_zero_field_callback(self, setup):
        wf, vloc, corr = setup
        a = wf.copy()
        b = wf.copy()
        QDPropagator(a, vloc, PropagatorConfig(dt=0.05), corrector=None).run(10)
        QDPropagator(
            b, vloc, PropagatorConfig(dt=0.05), corrector=None,
            a_of_t=lambda t: (0.0, 0.0, 0.0),
        ).run(10)
        assert a.max_abs_diff(b) < 1e-14

    def test_kin_variant_invariance(self, setup):
        wf, vloc, corr = setup
        results = []
        for variant in ("baseline", "collapsed"):
            w = wf.copy()
            QDPropagator(
                w, vloc,
                PropagatorConfig(dt=0.05, kin_variant=variant),
                corrector=corr,
            ).run(5)
            results.append(w)
        assert results[0].max_abs_diff(results[1]) < 1e-12


class TestShadowAmortization:
    def test_set_potential_refreshes_phase(self, setup):
        wf, vloc, _ = setup
        prop = QDPropagator(wf.copy(), vloc, PropagatorConfig(dt=0.05))
        old_phase = prop._half_phase.copy()
        prop.set_potential(vloc * 2.0)
        assert np.abs(prop._half_phase - old_phase).max() > 1e-6

    def test_set_potential_shape_check(self, setup):
        wf, vloc, _ = setup
        prop = QDPropagator(wf, vloc, PropagatorConfig(dt=0.05))
        with pytest.raises(ValueError):
            prop.set_potential(np.zeros((2, 2, 2)))

    def test_observer_called(self, setup):
        wf, vloc, _ = setup
        prop = QDPropagator(wf, vloc, PropagatorConfig(dt=0.05))
        calls = []
        prop.run(10, observer=lambda p: calls.append(p.steps_taken),
                 observe_every=2)
        assert calls == [2, 4, 6, 8, 10]

    def test_negative_steps(self, setup):
        wf, vloc, _ = setup
        prop = QDPropagator(wf, vloc, PropagatorConfig(dt=0.05))
        with pytest.raises(ValueError):
            prop.run(-1)

    def test_renormalize_every(self, setup):
        wf, vloc, corr = setup
        cfg = PropagatorConfig(dt=0.05, renormalize_every=3)
        prop = QDPropagator(wf, vloc, cfg, corrector=corr)
        prop.run(9)
        assert np.abs(wf.norms() - 1.0).max() < 1e-12
