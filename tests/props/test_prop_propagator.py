"""Property-based invariants of the full QD propagator (Eq. 6).

The split-operator propagator is a product of exactly unitary factors
(pair rotations, diagonal phases), so orbital norms must be conserved to
round-off for *any* admissible dt/grid/order/kernel-variant -- that is
the invariant that lets the paper run thousands of QD sub-steps per MD
step without renormalizing.  A constant shift of the local potential
commutes with everything and contributes only a global phase, and a CAP
can only ever remove norm.

:meth:`QDPropagator.run` executes the sub-steps as a fused schedule (one
nonlocal factor per sub-step boundary, the Eq. 6 normalization deferred
to the points where psi is read); it is held here against the explicit
Eq. 6 composition of the unfused kernels, written out in
:func:`eq6_reference`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import HBAR
from repro.grids import Grid3D
from repro.lfd import (
    NonlocalCorrector,
    PropagatorConfig,
    QDPropagator,
    WaveFunctionSet,
    kinetic_step,
    nonlocal_correction_blas,
    potential_phase_step,
)
from repro.lfd.cap import cos2_absorber
from repro.lfd.vector_gauge import peierls_phases
from repro.resilience.guards import GuardConfig, HealthGuard

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


# --------------------------------------------------------------------- #
# the fused schedule against the explicit Eq. 6 composition
# --------------------------------------------------------------------- #
SUZUKI_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))


def laser(a):
    """A vector potential with a non-zero Peierls phase on every axis."""
    return lambda t: (a[0] * np.cos(0.7 * t), a[1], a[2] * np.sin(t) + 0.5)


def eq6_reference(wf, vloc, ref, dsci, dt, nsteps, order=2, a_of_t=None,
                  cap=None, renormalize_every=0, snapshots=None):
    """Eq. 6 sub-step by sub-step: every factor applied on its own.

    Each Strang sub-step of length h is NL(h/2) V(h/2) T(h) V(h/2)
    NL(h/2), with the normalization after every nonlocal half-factor;
    the CAP damping and the re-normalization follow the sub-step.
    ``snapshots`` collects psi after every sub-step.
    """
    fracs = (1.0,) if order == 2 else (SUZUKI_P, SUZUKI_P,
                                       1.0 - 4.0 * SUZUKI_P,
                                       SUZUKI_P, SUZUKI_P)
    t_step = 0.0
    for n in range(nsteps):
        t = t_step
        for frac in fracs:
            h = frac * dt
            theta = ((0.0, 0.0, 0.0) if a_of_t is None
                     else peierls_phases(wf.grid, a_of_t(t + h / 2.0)))
            if ref is not None:
                nonlocal_correction_blas(wf, ref, dsci, h)
            potential_phase_step(wf, vloc, h / 2.0)
            kinetic_step(wf, h, theta=theta)
            potential_phase_step(wf, vloc, h / 2.0)
            if ref is not None:
                nonlocal_correction_blas(wf, ref, dsci, h)
            t += h
        if cap is not None:
            wf.psi *= np.exp(-dt * cap)[..., None]
        if renormalize_every and (n + 1) % renormalize_every == 0:
            wf.normalize()
        t_step += dt
        if snapshots is not None:
            snapshots.append(wf.psi.copy())
    return wf


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    a=st.tuples(*[st.floats(0.5, 20.0)] * 3),
    dt=st.floats(0.005, 0.1),
    dsci=st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3),
    nsteps=st.integers(1, 12),
    order=st.sampled_from((2, 4)),
    with_cap=st.booleans(),
    renormalize_every=st.integers(0, 4),
    check_every=st.integers(1, 5),
    observe_every=st.integers(1, 5),
)
def test_fused_run_matches_eq6_composition(seed, a, dt, dsci, nsteps, order,
                                           with_cap, renormalize_every,
                                           check_every, observe_every):
    """run() == the explicit composition to 1e-12, at every read point.

    The guard and the observer exercise the flush points; the observer
    must see the same state as the reference at its sub-step.  The
    reference block is not orthonormal, so the fused factor's Gram
    matrix is exercised too.
    """
    grid, wf, vloc = make_state(3, seed)
    ref = WaveFunctionSet.random(grid, 2, np.random.default_rng(seed + 2),
                                 orthonormal=False)
    cap = (cos2_absorber(grid, width_points=1, strength=0.5)
           if with_cap else None)
    want = []
    eq6_reference(wf.copy(), vloc, ref, dsci, dt, nsteps, order=order,
                  a_of_t=laser(a), cap=cap,
                  renormalize_every=renormalize_every, snapshots=want)

    seen = []
    guard = HealthGuard(GuardConfig(check_every=check_every, norm_tol=1.0))
    prop = QDPropagator(
        wf, vloc,
        PropagatorConfig(dt=dt, order=order,
                         renormalize_every=renormalize_every),
        corrector=NonlocalCorrector(ref, dsci), a_of_t=laser(a), cap=cap,
        guard=guard,
    )
    prop.run(nsteps, observer=lambda p: seen.append(
        (p.steps_taken, p.wf.psi.copy())), observe_every=observe_every)
    assert np.abs(wf.psi - want[-1]).max() <= 1e-12
    assert [k for k, _ in seen] == list(
        range(observe_every, nsteps + 1, observe_every))
    for k, psi in seen:
        assert np.abs(psi - want[k - 1]).max() <= 1e-12
    if cap is None:
        assert np.abs(wf.norms() - 1.0).max() <= 1e-12


@pytest.mark.parametrize("order", [2, 4])
def test_fused_run_matches_eq6_after_100_substeps(order):
    """The acceptance gate: 100 sub-steps, theta != 0 on every axis."""
    grid, wf, vloc = make_state(4, 7, n=8)
    ref = WaveFunctionSet.random(grid, 2, np.random.default_rng(9),
                                 orthonormal=False)
    a_of_t = laser((12.0, -6.0, 9.0))
    assert all(abs(th) > 1e-3
               for th in peierls_phases(grid, a_of_t(0.0)))
    want = eq6_reference(wf.copy(), vloc, ref, 0.35, 0.04, 100,
                         order=order, a_of_t=a_of_t)
    QDPropagator(wf, vloc, PropagatorConfig(dt=0.04, order=order),
                 corrector=NonlocalCorrector(ref, 0.35),
                 a_of_t=a_of_t).run(100)
    assert np.abs(wf.psi - want.psi).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 1000),
    a=st.tuples(*[st.floats(0.5, 20.0)] * 3),
    dt=st.floats(0.005, 0.1),
    nsteps=st.integers(1, 10),
    order=st.sampled_from((2, 4)),
)
def test_fused_run_without_corrector_is_unitary(seed, a, dt, nsteps, order):
    """With no nonlocal factor every kernel is unitary: the whole Gram
    matrix of the orbitals is conserved, not only the norms."""
    _, wf, vloc = make_state(3, seed)
    s0 = wf.overlap_matrix()
    QDPropagator(wf, vloc, PropagatorConfig(dt=dt, order=order),
                 a_of_t=laser(a)).run(nsteps)
    assert np.abs(wf.overlap_matrix() - s0).max() <= 1e-12 * nsteps
