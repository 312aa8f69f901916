"""Scissor shift of the projected nonlocal operator (Eq. 8).

Delta_sci = (e_LUMO - e_HOMO)|with nonlocal  -  (e_LUMO - e_HOMO)|local only.

The expensive nonlocal and cheap local HOMO/LUMO energies are computed
*once per MD step* and reused for the N_QD = 10^2..10^3 quantum
sub-steps -- the amortization at the heart of the shadow-dynamics
speedup.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.lfd.wavefunction import WaveFunctionSet
from repro.qxmd.hamiltonian import KSHamiltonian


def filled_orbital_count(nelec: float) -> int:
    """Orbitals the Aufbau ground state of ``nelec`` electrons occupies.

    ``ceil(nelec / 2)``, with slack for floating-point electron sums:
    remapped occupations are rescaled to the electron count, so a sum
    of 6 can read 5.999999999999999 or 6.000000000000001.
    """
    return int(np.ceil(nelec / 2.0 - 1e-9))


def homo_lumo_gap(
    eigenvalues: np.ndarray, occupations: np.ndarray
) -> Tuple[float, int, int]:
    """(gap, homo_index, lumo_index) from eigenvalues and occupations.

    HOMO/LUMO are defined by the *Aufbau filling of the electron count*
    (nfull = ceil(nelec / 2) doubly-occupied orbitals), which stays stable
    when LFD remapping spreads small fractional occupations across the
    spectrum.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    occupations = np.asarray(occupations, dtype=float)
    if eigenvalues.shape != occupations.shape:
        raise ValueError("eigenvalues and occupations must align")
    nelec = float(occupations.sum())
    if nelec <= 0:
        raise ValueError("no occupied states")
    nfull = filled_orbital_count(nelec)
    homo = nfull - 1
    lumo = nfull
    if lumo >= eigenvalues.size:
        raise ValueError("no unoccupied state available (increase norb)")
    return float(eigenvalues[lumo] - eigenvalues[homo]), homo, lumo


def scissor_shift(
    ham_full: KSHamiltonian,
    wf: WaveFunctionSet,
    occupations: np.ndarray,
) -> float:
    """Delta_sci from subspace HOMO-LUMO gaps with and without v_nl.

    Both gaps are evaluated by Rayleigh-Ritz in the span of the current
    adiabatic orbitals, so the two eigenproblems share the identical basis
    and the difference isolates the nonlocal contribution.
    """
    if ham_full.kb is None:
        return 0.0
    import scipy.linalg as sla

    ssub = wf.overlap_matrix()
    h_nl = ham_full.subspace_matrix(wf)
    h_loc = ham_full.without_nonlocal().subspace_matrix(wf)
    e_nl = sla.eigh(h_nl, ssub, eigvals_only=True)
    e_loc = sla.eigh(h_loc, ssub, eigvals_only=True)
    gap_nl, _, _ = homo_lumo_gap(e_nl, occupations)
    gap_loc, _, _ = homo_lumo_gap(e_loc, occupations)
    return gap_nl - gap_loc
