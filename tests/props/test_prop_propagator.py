"""Property-based invariants of the full QD propagator (Eq. 6).

The split-operator propagator is a product of exactly unitary factors
(pair rotations, diagonal phases), so orbital norms must be conserved to
round-off for *any* admissible dt/grid/order/kernel-variant -- that is
the invariant that lets the paper run thousands of QD sub-steps per MD
step without renormalizing.  A constant shift of the local potential
commutes with everything and contributes only a global phase, and a CAP
can only ever remove norm.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import HBAR
from repro.grids import Grid3D
from repro.lfd import PropagatorConfig, QDPropagator, WaveFunctionSet
from repro.lfd.cap import cos2_absorber

KIN_VARIANTS = ("baseline", "interchange", "blocked", "collapsed", "gemm")


def make_state(norb, seed, n=6, h=0.5, vscale=0.3):
    grid = Grid3D.cubic(n, h)
    wf = WaveFunctionSet.random(grid, norb, np.random.default_rng(seed))
    vloc = vscale * np.random.default_rng(seed + 1).standard_normal(grid.shape)
    return grid, wf, vloc


@settings(max_examples=30, deadline=None)
@given(
    norb=st.integers(1, 4),
    seed=st.integers(0, 1000),
    dt=st.floats(0.005, 0.1),
    order=st.sampled_from((2, 4)),
    variant=st.sampled_from(KIN_VARIANTS),
    n=st.sampled_from((6, 8, 10)),  # pair splitting needs even grids
)
def test_unitarity_norm_drift(norb, seed, dt, order, variant, n):
    """Norm drift below 1e-12 per step for any dt/grid/order/variant."""
    _, wf, vloc = make_state(norb, seed, n=n)
    norms0 = wf.norms()
    nsteps = 5
    prop = QDPropagator(
        wf, vloc,
        PropagatorConfig(dt=dt, order=order, kin_variant=variant),
    )
    prop.run(nsteps)
    drift = np.max(np.abs(wf.norms() - norms0))
    assert drift < 1e-12 * nsteps


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 1000),
    shift=st.floats(-5.0, 5.0),
    order=st.sampled_from((2, 4)),
)
def test_constant_potential_shift_is_global_phase(seed, shift, order):
    """v -> v + c only multiplies the state by exp(-i c t / hbar).

    The shift commutes with every factor of the split, so the shifted
    and unshifted trajectories must agree point-by-point up to that
    global phase -- for both the Strang and the Suzuki composition.
    """
    _, wf, vloc = make_state(2, seed)
    wf_shift = wf.copy()
    dt, nsteps = 0.04, 3
    QDPropagator(wf, vloc, PropagatorConfig(dt=dt, order=order)).run(nsteps)
    QDPropagator(
        wf_shift, vloc + shift, PropagatorConfig(dt=dt, order=order)
    ).run(nsteps)
    phase = np.exp(-1j * shift * dt * nsteps / HBAR)
    assert np.allclose(wf_shift.psi, wf.psi * phase, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 1000),
    strength=st.floats(0.1, 3.0),
    width=st.integers(1, 2),
)
def test_cap_norm_decay_is_monotone(seed, strength, width):
    """With a CAP the per-orbital norms only ever decrease."""
    grid, wf, vloc = make_state(2, seed, n=8)
    cap = cos2_absorber(grid, width_points=width, strength=strength)
    prop = QDPropagator(wf, vloc, PropagatorConfig(dt=0.05), cap=cap)
    norms = [wf.norms().copy()]
    for _ in range(4):
        prop.step()
        norms.append(wf.norms().copy())
    for before, after in zip(norms, norms[1:]):
        assert np.all(after <= before + 1e-13)
    # A random state has support in the absorber, so norm is truly lost.
    assert np.all(norms[-1] < norms[0])


@settings(max_examples=10, deadline=None)
@given(
    norb=st.integers(1, 3),
    seed=st.integers(0, 1000),
    dt=st.floats(0.005, 0.1),
    order=st.sampled_from((2, 4)),
)
def test_unitarity_holds_on_every_backend(xp_backend, norb, seed, dt, order):
    """Norm conservation is substrate-independent.

    On the strict member this doubles as the no-silent-round-trip gate:
    the strict namespace raises ``TypeError`` on any ``np.*`` touch of
    its arrays, so a propagator that survives N steps under it provably
    never left the declared namespace between the asarray/to_numpy
    boundaries.
    """
    _, wf, vloc = make_state(norb, seed, n=6)
    norms0 = wf.norms()
    nsteps = 3
    prop = QDPropagator(
        wf, vloc,
        PropagatorConfig(dt=dt, order=order, backend=xp_backend),
    )
    prop.run(nsteps)
    drift = np.max(np.abs(wf.norms() - norms0))
    assert drift < 1e-12 * nsteps


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 1000),
    strength=st.floats(0.1, 3.0),
)
def test_cap_decay_monotone_on_every_backend(xp_backend, seed, strength):
    """The CAP split factor only removes norm on any substrate."""
    grid, wf, vloc = make_state(2, seed, n=8)
    cap = cos2_absorber(grid, width_points=1, strength=strength,
                        backend=xp_backend)
    prop = QDPropagator(
        wf, vloc, PropagatorConfig(dt=0.05, backend=xp_backend), cap=cap
    )
    norms = [wf.norms().copy()]
    for _ in range(3):
        prop.step()
        norms.append(wf.norms().copy())
    for before, after in zip(norms, norms[1:]):
        assert np.all(after <= before + 1e-13)
    assert np.all(norms[-1] < norms[0])


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 1000),
    dt=st.floats(0.01, 0.1),
    variant=st.sampled_from(KIN_VARIANTS),
)
def test_cross_backend_trajectories_agree(seed, dt, variant):
    """numpy and strict propagation of the same state agree to 1e-12.

    Every native kin variant is held against the one portable kernel --
    the variant axis is an execution schedule, never different physics.
    """
    _, wf, vloc = make_state(2, seed, n=6)
    wf_strict = wf.copy()
    nsteps = 3
    QDPropagator(
        wf, vloc, PropagatorConfig(dt=dt, kin_variant=variant,
                                   backend="numpy")
    ).run(nsteps)
    QDPropagator(
        wf_strict, vloc, PropagatorConfig(dt=dt, kin_variant=variant,
                                          backend="array_api_strict")
    ).run(nsteps)
    assert np.max(np.abs(wf_strict.psi - wf.psi)) <= 1e-12


class TestSplittingOrder:
    """Deterministic convergence-order check: Strang vs Suzuki."""

    @staticmethod
    def _final_state(order, dt, nsteps, seed=42):
        _, wf, vloc = make_state(2, seed)
        QDPropagator(wf, vloc, PropagatorConfig(dt=dt, order=order)).run(nsteps)
        return wf.psi

    def test_error_ratios(self):
        T = 0.4
        ref = self._final_state(4, T / 32, 32)
        err = {
            (order, dt): np.max(np.abs(
                self._final_state(order, dt, round(T / dt)) - ref
            ))
            for order in (2, 4)
            for dt in (0.1, 0.05)
        }
        # Halving dt cuts the global error by ~2^order.
        ratio2 = err[(2, 0.1)] / err[(2, 0.05)]
        ratio4 = err[(4, 0.1)] / err[(4, 0.05)]
        assert 3.0 < ratio2 < 5.5, (ratio2, err)
        assert ratio4 > 8.0, (ratio4, err)
        # At the same dt the 4th-order composition is far more accurate.
        assert err[(4, 0.1)] < err[(2, 0.1)] / 20.0, err
