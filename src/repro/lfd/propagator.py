"""The full Suzuki-Trotter quantum-dynamics step (Eq. 6).

One QD sub-step of length dt_QD applies

    psi <- NL(dt/2) . V(dt/2) . T(dt) . V(dt/2) . NL(dt/2) . psi

where NL is the normalized scissor-projected nonlocal half-factor
(Eq. 7), V the local-potential phase and T the pair-split kinetic sweep.
Under shadow dynamics the local potential and the nonlocal reference are
frozen for the whole MD step, so the V phase field is computed once and
re-used for all N_QD sub-steps while only the Peierls phases (the laser)
change; this is the amortization that lets the propagation live entirely
on the GPU.

The same freezing lets :meth:`QDPropagator.run` execute N sub-steps as
one fused schedule.  The two half-factors that meet at a sub-step
boundary share one reference, so they are one factor,

    NL(dt2/2) . NL(dt1/2) = 1 + phi ((c1 + c2) I + c1 c2 S) phi^H dvol,

with S the Gram matrix of the reference -- one GEMM pair per boundary,
N + 1 factors instead of 2N.  Every factor acts on the orbitals column
by column, so the Eq. (6) normalization, a positive scale per column,
is deferred to the flush points, where psi is read: an observer call, a
``renormalize_every`` step, a CAP step and the end of the run.  A
health-guard check reads the pending state as it is: a pending factor
keeps each orbital finite or not, and the norms it would leave follow
from the small overlaps phi^H psi and S, so nothing is copied or
written.  The V phases are kept at the full ``(grid..., norb)`` shape
of psi, one per sub-step length (one array the size of psi for order 2,
two for order 4), so each is one contiguous multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence

import numpy as np

from repro.lfd.kin_prop import kinetic_step
from repro.lfd.nonlocal_corr import NonlocalCorrector
from repro.lfd.pot_prop import potential_phase, potential_phase_step
from repro.lfd.vector_gauge import peierls_phases
from repro.lfd.wavefunction import WaveFunctionSet
from repro.obs import trace_span
from repro.resilience.faults import fault_point

if TYPE_CHECKING:  # guards are read-only observers; avoid a runtime cycle
    from repro.resilience.guards import HealthGuard


@dataclass
class PropagatorConfig:
    """Numerical knobs of the QD propagator.

    Attributes
    ----------
    dt:
        QD time step Delta_QD (a.u.; ~1e-3 fs scale, i.e. attoseconds).
    kin_variant:
        Which ``kin_prop`` kernel to use (Algorithms 1-5, or the
        per-direction ``gemm`` sweep); None resolves
        from the active :class:`~repro.tuning.profile.TuningProfile`
        (the ``lfd.kin_prop`` tunable).
    block_size:
        Orbital block size for the ``blocked`` variant; None resolves
        from the active tuning profile.
    nl_normalize:
        Apply the Eq. (6) normalization of the nonlocal factor.
    renormalize_every:
        Re-normalize orbital norms every k steps (0 = never).  The
        propagator is unitary to round-off, so this is a guard, not a
        physics knob.
    """

    dt: float = 0.05
    kin_variant: Optional[str] = None
    block_size: Optional[int] = None
    nl_normalize: bool = True
    renormalize_every: int = 0
    order: int = 2

    def __post_init__(self) -> None:
        from repro.tuning.profile import get_active_profile

        params = get_active_profile().params_for("lfd.kin_prop")
        if self.kin_variant is None:
            self.kin_variant = str(params["variant"])
        if self.block_size is None:
            self.block_size = int(params["block_size"])  # type: ignore[arg-type]
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.order not in (2, 4):
            raise ValueError("order must be 2 (Strang) or 4 (Suzuki)")


class QDPropagator:
    """Propagates a domain's orbitals through N_QD quantum sub-steps.

    Parameters
    ----------
    wf:
        The wave-function set to evolve (modified in place).
    vloc:
        Frozen local potential for this MD step.
    config:
        Numerical configuration.
    corrector:
        Optional scissor-projected nonlocal corrector; ``None`` disables
        the nonlocal factors (local-only ablation).
    a_of_t:
        Callable t -> 3-vector A(t) at the domain centre; ``None`` means
        no field.
    guard:
        Optional :class:`~repro.resilience.guards.HealthGuard`; when set,
        the orbitals are health-checked every ``guard.config.check_every``
        sub-steps of :meth:`run` (guards only read state).
    """

    def __init__(
        self,
        wf: WaveFunctionSet,
        vloc: np.ndarray,
        config: PropagatorConfig,
        corrector: Optional[NonlocalCorrector] = None,
        a_of_t: Optional[Callable[[float], Sequence[float]]] = None,
        cap: Optional[np.ndarray] = None,
        guard: Optional["HealthGuard"] = None,
    ) -> None:
        if vloc.shape != wf.grid.shape:
            raise ValueError("potential shape does not match grid")
        self.wf = wf
        self.vloc = np.asarray(vloc, dtype=float)
        self.config = config
        self.corrector = corrector
        self.a_of_t = a_of_t
        self.guard = guard
        self.time = 0.0
        self.steps_taken = 0
        # Shadow-dynamics amortization: the V(dt/2) phases are frozen,
        # one per sub-step length (see _phase).
        self._phases: Dict[float, np.ndarray] = {}
        # Length of the trailing nonlocal half-factor not yet applied;
        # only run() leaves one pending between its sub-steps.
        self._pending: Optional[float] = None
        # Optional complex absorbing potential (see repro.lfd.cap): the
        # damping factor exp(-dt W) is exact for the CAP split term.
        self._cap_factor: Optional[np.ndarray] = None
        if cap is not None:
            cap = np.asarray(cap, dtype=float)
            if cap.shape != wf.grid.shape:
                raise ValueError("CAP shape does not match grid")
            if np.any(cap < 0):
                raise ValueError("CAP must be non-negative (absorbing)")
            self._cap_factor = np.exp(-config.dt * cap)

    @property
    def kinetic_rotation_angle(self) -> float:
        """Largest per-pass pair-rotation angle dt |o| (radians).

        The Suzuki-Trotter splitting is accurate only while this is small;
        as a rule of thumb keep it below ~0.5 (the paper's Delta_QD of a
        few attoseconds on its mesh sits well below that).  Above ~1 the
        propagated state rapidly leaves the adiabatic span and the
        occupation remap loses population.
        """
        angles = []
        for axis in range(3):
            h = self.wf.grid.spacing[axis]
            angles.append(self.config.dt * 0.5 / (h * h))
        return max(angles)

    def set_potential(self, vloc: np.ndarray) -> None:
        """Replace the frozen local potential (start of a new MD step)."""
        if vloc.shape != self.wf.grid.shape:
            raise ValueError("potential shape does not match grid")
        self.vloc = np.asarray(vloc, dtype=float)
        self._phases.clear()

    def _phase(self, dt: float) -> np.ndarray:
        """V(dt/2) broadcast to the full ``(grid..., norb)`` shape of psi.

        Built once per sub-step length while the potential is frozen,
        in the orbital dtype, so each application is one contiguous
        multiply.
        """
        phase = self._phases.get(dt)
        if phase is None:
            half = potential_phase(self.vloc, dt / 2.0)
            phase = np.ascontiguousarray(
                np.broadcast_to(half[..., None], self.wf.psi.shape),
                dtype=self.wf.dtype,
            )
            self._phases[dt] = phase
        return phase

    def _theta(self, t: float) -> Sequence[float]:
        if self.a_of_t is None:
            return (0.0, 0.0, 0.0)
        return peierls_phases(self.wf.grid, self.a_of_t(t))

    def _nonlocal(self, dt: float) -> None:
        """The leading NL(dt) of a Strang sub-step, fused with the pending
        trailing half-factor of the previous one when there is one."""
        if self.corrector is None:
            return
        if self._pending is None:
            self.corrector.apply(self.wf, dt, normalize=False)
        else:
            self.corrector.apply(self.wf, self._pending, normalize=False,
                                 next_dt=dt)
        self._pending = dt

    def _flush(self) -> None:
        """Apply the pending trailing half-factor and the deferred Eq. (6)
        normalization in place: afterwards ``wf`` is the complete state."""
        if self.corrector is not None and self._pending is not None:
            self.corrector.apply(self.wf, self._pending,
                                 normalize=self.config.nl_normalize)
        self._pending = None

    def _check(self, guard: "HealthGuard") -> None:
        """Health-check the complete state without completing it.

        The pending half-factor acts on each orbital alone, so an orbital
        is finite after it exactly when it is finite before it; its norms
        come from :meth:`NonlocalCorrector.flushed_norms`.  Nothing is
        written, so the schedule goes on untouched.
        """
        norms = None
        if (self.corrector is not None and self._pending is not None
                and guard.config.check_norms):
            norms = self.corrector.flushed_norms(
                self.wf, self._pending, self.config.nl_normalize)
        guard.check_wavefunction(
            self.wf, where=f"QD sub-step {self.steps_taken}", norms=norms)

    #: Suzuki fractal coefficient for the 4th-order composition.
    _SUZUKI_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))

    def step(self, *, flush: bool = True) -> None:
        """Advance the orbitals by one QD sub-step (Eq. 6).

        ``order=2`` is the paper's Strang splitting; ``order=4`` composes
        five Strang sub-steps with Suzuki's fractal coefficients
        (p, p, 1-4p, p, p), raising the local error to O(dt^5) at 5x the
        kernel cost -- the classic accuracy/cost ablation for
        split-operator TDDFT.  Where two Strang sub-steps meet, their
        nonlocal half-factors are applied as one fused factor.

        On return ``wf`` holds the complete state.  ``flush=False``
        leaves the trailing nonlocal half-factor pending for the next
        step to fuse; :meth:`run` passes it (and goes through this method,
        so per-step instrumentation such as perfbench's ``lfd.qd_step``
        layer sees every sub-step).
        """
        try:
            self._advance()
        finally:
            if flush:
                self._flush()

    def _advance(self) -> None:
        """The body of :meth:`step`, leaving its trailing nonlocal
        half-factor pending."""
        cfg = self.config
        with trace_span("qd.step", "lfd", order=cfg.order):
            if cfg.order == 2:
                lengths: Sequence[float] = (cfg.dt,)
            else:
                p = self._SUZUKI_P
                lengths = [f * cfg.dt for f in (p, p, 1.0 - 4.0 * p, p, p)]
            t = self.time
            for dt in lengths:
                self._nonlocal(dt)
                phase = self._phase(dt)
                potential_phase_step(self.wf, self.vloc, dt / 2.0,
                                     phase=phase)
                kinetic_step(
                    self.wf,
                    dt,
                    theta=self._theta(t + dt / 2.0),
                    variant=cfg.kin_variant,
                    block_size=cfg.block_size,
                )
                potential_phase_step(self.wf, self.vloc, dt / 2.0,
                                     phase=phase)
                t += dt
            if self._cap_factor is not None:
                self._flush()
                self.wf.psi *= self._cap_factor[..., None].astype(self.wf.dtype)
        spec = fault_point("lfd.nan")
        if spec is not None:
            orb = int(spec.payload.get("orbital", 0)) % self.wf.norb
            self.wf.psi[..., orb] = np.nan
        self.time += cfg.dt
        self.steps_taken += 1
        if cfg.renormalize_every and self.steps_taken % cfg.renormalize_every == 0:
            self._flush()
            self.wf.normalize()

    def run(
        self,
        nsteps: int,
        observer: Optional[Callable[["QDPropagator"], None]] = None,
        observe_every: int = 1,
    ) -> None:
        """Run ``nsteps`` QD sub-steps as one fused schedule (see the
        module docstring), optionally calling an observer.

        Guard checks only read the state (see :meth:`_check`), so a
        guarded run is bit-identical to an unguarded one.  Whenever
        control leaves, ``wf`` holds the complete state.
        """
        if nsteps < 0:
            raise ValueError("nsteps must be non-negative")
        with trace_span("qd.run", "lfd", nsteps=nsteps, norb=self.wf.norb):
            try:
                for i in range(nsteps):
                    self.step(flush=False)
                    if self.guard is not None and (
                        (i + 1) % self.guard.config.check_every == 0
                        or i + 1 == nsteps
                    ):
                        self._check(self.guard)
                    if observer is not None and (i + 1) % max(observe_every, 1) == 0:
                        self._flush()
                        observer(self)
            finally:
                self._flush()
