"""Local-potential phase propagator.

The local part of the split Hamiltonian (Eq. 5) -- local pseudopotential,
Hartree and local exchange-correlation -- is diagonal in real space, so
``exp(-i dt v_loc(r) / hbar)`` is a pointwise phase multiplication.  This
is the memory-bandwidth-bound partner of the kinetic stencil in the
electron-propagation kernel of Table II.
"""

from __future__ import annotations

import numpy as np

from repro.constants import HBAR
from repro.lfd.wavefunction import WaveFunctionSet
from repro.obs import trace_charge, trace_span


def potential_phase(  # dclint: disable=DCL006 -- timed by potential_phase_step
    vloc: np.ndarray, dt: float
) -> np.ndarray:
    """The diagonal phase field exp(-i dt v_loc / hbar)."""
    return np.exp((-1j * (dt / HBAR)) * np.asarray(vloc, dtype=float))


def potential_phase_step(
    wf: WaveFunctionSet,
    vloc: np.ndarray,
    dt: float,
    phase: np.ndarray | None = None,
) -> np.ndarray:
    """Apply exp(-i dt v_loc / hbar) to every orbital in place.

    Parameters
    ----------
    wf:
        The wave-function set to propagate.
    vloc:
        Real local potential on the grid (ignored if ``phase`` is given).
    dt:
        Time step (use dt/2 for the outer Strang halves of Eq. 6).
    phase:
        Optional precomputed phase field (re-used across orbital sets and
        QD sub-steps while the potential is frozen -- the shadow-dynamics
        amortization), either on the grid or already broadcast to the
        full ``(grid..., norb)`` shape of ``wf.psi``.  The full shape
        multiplies in one contiguous pass; the grid shape is broadcast
        over the short orbital axis on every call.

    Returns
    -------
    The phase field actually used, so callers can cache it across
    sub-steps.
    """
    if phase is None:
        if vloc.shape != wf.grid.shape:
            raise ValueError(
                f"potential shape {vloc.shape} != grid shape {wf.grid.shape}"
            )
        phase = potential_phase(vloc, dt)
    with trace_span("pot_prop", "potential"):
        # One complex multiply per point-orbital (see costs.pot_prop_half).
        pts = wf.grid.npoints * wf.norb
        trace_charge(6.0 * pts, 2.0 * wf.psi.itemsize * pts)
        phase_cast = phase.astype(wf.dtype, copy=False)
        if phase.shape == wf.psi.shape:
            wf.psi *= phase_cast
        else:
            wf.psi *= phase_cast[..., None]
    return phase
