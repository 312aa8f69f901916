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
        old_phase = prop._phase(0.05).copy()
        assert old_phase.shape == wf.psi.shape
        prop.set_potential(vloc * 2.0)
        assert np.abs(prop._phase(0.05) - old_phase).max() > 1e-6

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


class TestFusedSchedule:
    """run() fuses the nonlocal half-factors that meet between sub-steps."""

    @staticmethod
    def driven(setup, guard=None, order=2):
        wf, vloc, corr = setup
        return QDPropagator(
            wf.copy(), vloc, PropagatorConfig(dt=0.05, order=order),
            corrector=corr, guard=guard,
            a_of_t=lambda t: (3.0 * np.sin(0.4 * t), 1.5, -2.0 * np.cos(t)),
        )

    @pytest.mark.parametrize("guarded", [False, True])
    @pytest.mark.parametrize("order, nsteps, calls", [
        (2, 7, 8),      # 2 + (N - 1)
        (4, 3, 16),     # five Strang sub-steps per step
    ])
    def test_one_nonlocal_factor_per_boundary(self, setup, order, nsteps,
                                              calls, guarded):
        from repro.obs import tracing
        from repro.resilience.guards import HealthGuard

        guard = HealthGuard() if guarded else None
        prop = self.driven(setup, guard=guard, order=order)
        with tracing() as tr:
            prop.run(nsteps)
        names = [r.name for r in tr.records]
        assert names.count("nonlocal_corr") == calls
        assert names.count("qd.step") == nsteps

    @pytest.mark.parametrize("order", [2, 4])
    def test_run_matches_standalone_steps(self, setup, order):
        fused = self.driven(setup, order=order)
        fused.run(12)
        single = self.driven(setup, order=order)
        for _ in range(12):
            single.step()
        assert fused.wf.max_abs_diff(single.wf) <= 1e-13
        assert np.abs(fused.wf.norms() - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("check_every", [1, 3])
    def test_guarded_run_is_bit_identical(self, setup, check_every):
        from repro.resilience.guards import GuardConfig, HealthGuard

        plain = self.driven(setup)
        plain.run(10)
        guard = HealthGuard(GuardConfig(check_every=check_every))
        guarded = self.driven(setup, guard=guard)
        guarded.run(10)
        assert guard.checks_run > 0
        assert np.array_equal(guarded.wf.psi, plain.wf.psi)

    def test_nan_arrives_once_per_substep_and_trips_guard(self, setup):
        from repro.resilience.faults import FaultPlan, FaultSpec, armed
        from repro.resilience.guards import (
            GuardConfig,
            HealthGuard,
            NumericalDivergenceError,
        )

        plan = FaultPlan([FaultSpec("lfd.nan", at_call=100)])
        with armed(plan):
            self.driven(setup).run(9)
        assert plan.calls("lfd.nan") == 9

        prop = self.driven(setup, guard=HealthGuard(GuardConfig()))
        plan = FaultPlan([FaultSpec("lfd.nan", at_call=4,
                                    payload={"orbital": 2})])
        with armed(plan):
            with pytest.raises(NumericalDivergenceError, match="sub-step 5"):
                prop.run(10)
        assert plan.calls("lfd.nan") == 5
        assert prop.steps_taken == 5
        assert np.all(np.isnan(prop.wf.psi[..., 2]))
        assert np.all(np.isfinite(np.delete(prop.wf.psi, 2, axis=-1)))

    def test_guard_norms_are_those_of_the_complete_state(self, setup):
        """Without the Eq. (6) normalization the norms grow; the guard
        trips at the sub-step where the complete state leaves tolerance."""
        from repro.resilience.guards import (
            GuardConfig,
            HealthGuard,
            NormDriftError,
        )

        wf, vloc, corr = setup
        cfg = PropagatorConfig(dt=0.05, nl_normalize=False)
        plain = QDPropagator(wf.copy(), vloc, cfg, corrector=corr)
        drift = []
        for _ in range(8):
            plain.step()
            drift.append(np.abs(plain.wf.norms() - 1.0).max())
        assert all(np.diff(drift) > 0)
        # Crossed at sub-step 6; the state short of its trailing
        # half-factor stays below it there.
        tol = drift[4] + 0.75 * (drift[5] - drift[4])
        guard = HealthGuard(GuardConfig(norm_tol=tol))
        prop = QDPropagator(wf.copy(), vloc, cfg, corrector=corr, guard=guard)
        with pytest.raises(NormDriftError, match="sub-step 6"):
            prop.run(8)

    def test_failed_step_leaves_no_factor_pending(self, setup, monkeypatch):
        """A step that raises completes its pending half-factor, so the
        next step fuses nothing stale."""
        import repro.lfd.propagator as propagator

        prop = self.driven(setup)

        def broken(*args, **kwargs):
            raise RuntimeError("kinetic kernel failed")

        with monkeypatch.context() as m:
            m.setattr(propagator, "kinetic_step", broken)
            with pytest.raises(RuntimeError, match="kinetic"):
                prop.step()
        assert prop._pending is None
        resumed = prop.wf.copy()
        prop.step()
        fresh = self.driven(setup)
        fresh.wf.psi[...] = resumed.psi
        fresh.step()
        assert np.array_equal(prop.wf.psi, fresh.wf.psi)
