"""Ehrenfest dynamics: the short-time limb of the MESH approach.

Section I of the paper: at short time scales, *Ehrenfest dynamics* relies
on the TDDFT equations directly -- the time-evolving electron density
dictates the interatomic forces -- while at longer times the adiabatic
representation plus surface hopping takes over (which is what
:class:`~repro.core.mesh.DCMESHSimulation` does).  This module provides
the Ehrenfest mode: the Kohn-Sham orbitals are propagated *continuously*
across MD steps (never re-solved), the density is rebuilt from the
propagated orbitals, and the mean-field forces follow from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.grids.grid import Grid3D
from repro.lfd.observables import density, dipole_moment
from repro.lfd.propagator import PropagatorConfig, QDPropagator
from repro.lfd.wavefunction import WaveFunctionSet
from repro.maxwell.laser import LaserPulse
from repro.multigrid.poisson import PoissonMultigrid
from repro.pseudo.elements import PseudoSpecies
from repro.pseudo.local import (
    core_repulsion_pair_forces,
    core_repulsion_potential,
    ionic_density,
)
from repro.qxmd.forces import ForceCalculator
from repro.qxmd.hartree import hartree_potential
from repro.qxmd.md import MDState, temperature
from repro.qxmd.xc import lda_exchange_correlation
from repro.tuning.defaults import DEFAULT_PARAMS


@dataclass
class EhrenfestRecord:
    """Per-MD-step observables of an Ehrenfest trajectory."""

    step: int
    time: float
    temperature: float
    dipole: np.ndarray
    electron_count: float


class EhrenfestDynamics:
    """Mean-field (Ehrenfest) nonadiabatic dynamics on one grid.

    Parameters
    ----------
    grid, positions, species:
        The atomic system (single spatial region; combine with the DC
        machinery for multi-domain runs).
    wf, occupations:
        Initial Kohn-Sham orbitals (typically from
        :func:`repro.qxmd.scf.scf_solve`) and their occupations -- these
        orbitals are *never* re-diagonalized, only propagated.
    dt_md, n_qd:
        The multiple-time-scale split: per MD step the electrons take
        ``n_qd`` sub-steps of ``dt_md / n_qd``.
    laser:
        Optional pulse (uniform A(t), velocity gauge).
    refresh_potential_every:
        Rebuild the Hartree+XC potential from the propagated density
        every k QD sub-steps (1 = fully self-consistent TDDFT mean field;
        larger values amortize like shadow dynamics).
    """

    def __init__(
        self,
        grid: Grid3D,
        positions: np.ndarray,
        species: Sequence[PseudoSpecies],
        wf: WaveFunctionSet,
        occupations: np.ndarray,
        dt_md: float = 2.0,
        n_qd: int = 20,
        laser: Optional[LaserPulse] = None,
        refresh_potential_every: int = 5,
        kin_variant: str = str(DEFAULT_PARAMS["lfd.kin_prop"]["variant"]),
    ) -> None:
        if dt_md <= 0 or n_qd < 1:
            raise ValueError("dt_md must be positive and n_qd >= 1")
        if refresh_potential_every < 0:
            raise ValueError("refresh_potential_every must be non-negative")
        self.grid = grid
        self.species = list(species)
        self.wf = wf
        self.occupations = np.asarray(occupations, dtype=float)
        if self.occupations.shape != (wf.norb,):
            raise ValueError("need one occupation per orbital")
        self.dt_md = dt_md
        self.n_qd = n_qd
        self.laser = laser
        self.refresh_every = refresh_potential_every
        self.kin_variant = kin_variant
        masses = np.array([sp.mass for sp in self.species])
        self.md_state = MDState(
            positions=np.asarray(positions, dtype=float).copy(),
            velocities=np.zeros((len(self.species), 3)),
            masses=masses,
        )
        self.poisson = PoissonMultigrid(grid)
        self.force_calc = ForceCalculator(grid, self.species, poisson=self.poisson)
        self.time = 0.0
        self.step_count = 0
        self.history: List[EhrenfestRecord] = []
        self._prev_forces: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def _build_potential(self) -> np.ndarray:
        rho_e = density(self.wf, self.occupations)
        rho_ion = ionic_density(self.grid, self.md_state.positions, self.species)
        phi = hartree_potential(
            rho_ion - rho_e, self.grid, method="multigrid", solver=self.poisson
        )
        v_xc, _ = lda_exchange_correlation(rho_e)
        v_core = core_repulsion_potential(
            self.grid, self.md_state.positions, self.species
        )
        return -phi + v_xc + v_core

    def _a_of_t(self) -> Optional[Callable[[float], np.ndarray]]:
        if self.laser is None:
            return None
        t0 = self.time

        def a_of_t(t: float, _t0=t0) -> np.ndarray:
            return self.laser.vector_potential(_t0 + t)

        return a_of_t

    def _forces(self) -> np.ndarray:
        rho_e = density(self.wf, self.occupations)
        f = self.force_calc.electrostatic_forces(self.md_state.positions, rho_e)
        f += core_repulsion_pair_forces(
            self.grid, self.md_state.positions, self.species
        )
        return f

    # ------------------------------------------------------------------ #
    def md_step(self) -> EhrenfestRecord:
        """One Delta_MD: propagate electrons mean-field, then the nuclei."""
        dt_qd = self.dt_md / self.n_qd
        prop = QDPropagator(
            self.wf,
            self._build_potential(),
            PropagatorConfig(dt=dt_qd, kin_variant=self.kin_variant),
            a_of_t=self._a_of_t(),
        )
        for i in range(self.n_qd):
            prop.step()
            if self.refresh_every and (i + 1) % self.refresh_every == 0:
                prop.set_potential(self._build_potential())

        forces = self._forces()
        m = self.md_state.masses[:, None]
        f0 = self._prev_forces if self._prev_forces is not None else forces
        self.md_state.velocities += 0.5 * (f0 + forces) / m * self.dt_md
        self.md_state.positions += (
            self.md_state.velocities * self.dt_md
            + 0.5 * forces / m * self.dt_md ** 2
        )
        self._prev_forces = forces
        self.time += self.dt_md
        self.step_count += 1
        rec = EhrenfestRecord(
            step=self.step_count,
            time=self.time,
            temperature=temperature(self.md_state),
            dipole=dipole_moment(self.wf, self.occupations),
            electron_count=float(
                density(self.wf, self.occupations).sum() * self.grid.dvol
            ),
        )
        self.history.append(rec)
        return rec

    def run(self, nsteps: int) -> List[EhrenfestRecord]:
        """Run ``nsteps`` Ehrenfest MD steps; returns their records."""
        if nsteps < 0:
            raise ValueError("nsteps must be non-negative")
        return [self.md_step() for _ in range(nsteps)]
