"""Typed numerical health guards for the propagation hot loops.

Long NAQMD trajectories fail numerically long before they fail loudly: a
NaN from an overflowed exponential silently propagates through every
subsequent kernel, orbital norms drift when the Suzuki-Trotter angle is
pushed too far, and a diverging SCF shows up as an exploding band
energy.  :class:`HealthGuard` checks all three at a configurable cadence
and raises a *typed* exception so the run supervisor can distinguish
"retry from checkpoint" from "abort":

* :class:`NumericalDivergenceError` -- non-finite values in orbitals,
  positions, velocities or occupations;
* :class:`NormDriftError` -- orbital norms strayed from unity beyond
  tolerance (the propagator is unitary to round-off, so drift means the
  splitting broke down);
* :class:`EnergyDriftError` -- band energy non-finite, beyond an
  absolute cap, or jumping by more than a relative tolerance in one MD
  step;
* :class:`SCFDivergenceError` -- the SCF cycle itself diverged (also
  the exception type raised by the ``qxmd.scf_diverge`` fault site).

Guards only *read* state; with no guard installed the simulation output
is bit-identical to unguarded behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # layering: resilience never imports core/lfd at runtime
    from repro.core.mesh import DCMESHSimulation, MDStepRecord
    from repro.lfd.wavefunction import WaveFunctionSet


class NumericalHealthError(RuntimeError):
    """Base class of every guard-raised condition (supervisor-recoverable)."""


class NumericalDivergenceError(NumericalHealthError):
    """Non-finite values appeared in simulation state."""


class NormDriftError(NumericalHealthError):
    """Orbital norms drifted from unity beyond tolerance."""


class EnergyDriftError(NumericalHealthError):
    """Total/band energy diverged or jumped beyond tolerance."""


class SCFDivergenceError(NumericalHealthError):
    """The self-consistent-field iteration diverged."""


@dataclass
class GuardConfig:
    """Cadence and tolerances of the numerical health checks.

    Attributes
    ----------
    check_every:
        QD sub-step cadence of the in-propagator checks (1 = every
        sub-step; larger values amortize the reduction cost).
    norm_tol:
        Allowed absolute deviation of any orbital norm from 1.
    energy_rel_tol:
        Allowed relative band-energy change per MD step.  Laser-driven
        runs legitimately pump energy, so the default is generous; it
        exists to catch explosions, not physics.
    max_abs_energy:
        Absolute band-energy magnitude treated as divergence (Ha).
    """

    check_every: int = 1
    norm_tol: float = 1e-3
    energy_rel_tol: float = 1.0
    max_abs_energy: float = 1e6
    check_orbitals: bool = True
    check_norms: bool = True
    check_energy: bool = True

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ValueError("check_every must be at least 1")
        if self.norm_tol <= 0 or self.energy_rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_abs_energy <= 0:
            raise ValueError("max_abs_energy must be positive")


class HealthGuard:
    """Stateful checker attached to a simulation and/or a QD propagator."""

    def __init__(self, config: Optional[GuardConfig] = None) -> None:
        self.config = config if config is not None else GuardConfig()
        self.checks_run = 0
        self._e_prev: Optional[float] = None

    # -- primitive checks ------------------------------------------------ #
    def check_array(self, arr: np.ndarray, name: str) -> None:
        """Raise :class:`NumericalDivergenceError` on any non-finite entry."""
        self.checks_run += 1
        if not np.all(np.isfinite(arr)):
            bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
            raise NumericalDivergenceError(
                f"{name}: {bad} non-finite value(s) detected"
            )

    def check_wavefunction(
        self,
        wf: "WaveFunctionSet",
        where: str = "",
        norms: Optional[np.ndarray] = None,
    ) -> None:
        """Finiteness + norm-drift check of one wave-function set.

        ``norms`` stands in for ``wf.norms()``: the QD propagator passes
        the norms its state will have once a pending nonlocal factor is
        applied (a factor that keeps every column finite or not).
        """
        ctx = f" at {where}" if where else ""
        if self.config.check_orbitals:
            self.check_array(wf.psi, f"orbitals{ctx}")
        if self.config.check_norms:
            self.checks_run += 1
            if norms is None:
                norms = wf.norms()
            drift = float(np.max(np.abs(norms - 1.0)))
            if drift > self.config.norm_tol:
                worst = int(np.argmax(np.abs(norms - 1.0)))
                raise NormDriftError(
                    f"orbital {worst}{ctx}: norm {norms[worst]:.6g} "
                    f"drifted {drift:.3g} > tol {self.config.norm_tol:.3g}"
                )

    def check_energy(self, energy: float, step: int) -> None:
        """Band-energy finiteness, magnitude and per-step jump check."""
        if not self.config.check_energy:
            return
        self.checks_run += 1
        if not np.isfinite(energy):
            raise EnergyDriftError(f"step {step}: band energy is non-finite")
        if abs(energy) > self.config.max_abs_energy:
            raise EnergyDriftError(
                f"step {step}: |E_band| = {abs(energy):.3g} exceeds "
                f"{self.config.max_abs_energy:.3g} Ha"
            )
        if self._e_prev is not None:
            scale = max(1.0, abs(self._e_prev))
            jump = abs(energy - self._e_prev) / scale
            if jump > self.config.energy_rel_tol:
                raise EnergyDriftError(
                    f"step {step}: band energy jumped {jump:.3g} (rel) "
                    f"> tol {self.config.energy_rel_tol:.3g} "
                    f"({self._e_prev:.6g} -> {energy:.6g} Ha)"
                )
        self._e_prev = float(energy)

    def reset_energy_reference(self) -> None:
        """Forget the previous-step energy (call after a restore)."""
        self._e_prev = None

    # -- composite checks ------------------------------------------------ #
    def check_md_step(self, sim: "DCMESHSimulation", record: "MDStepRecord") -> None:
        """Full health check after one MD step of a DC-MESH simulation."""
        step = record.step
        self.check_array(sim.md_state.positions, f"step {step}: positions")
        self.check_array(sim.md_state.velocities, f"step {step}: velocities")
        for st in sim.dc.states:
            self.check_array(
                st.occupations, f"step {step}: occupations[{st.domain.alpha}]"
            )
        self.check_energy(record.band_energy, step)
