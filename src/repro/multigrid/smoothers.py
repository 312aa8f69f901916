"""Relaxation smoothers for the periodic 7-point Laplacian.

The smoothers operate on the discrete Poisson problem

    L u = f,   (L u)[i,j,k] = sum_d (u[i+1_d] - 2 u + u[i-1_d]) / h_d^2

with periodic boundaries.  Because the periodic Laplacian has a constant
null space, the solvers work in the mean-zero subspace.

Each operation has one body: the ``_xp``-suffixed kernel, written on the
array-API subset (``roll`` neighbours; a parity-mask ``where`` in place
of boolean-mask assignment for red-black ordering).  The kernels take a
namespace ``xp`` and arrays of it, so the V-cycle in
:mod:`repro.multigrid.poisson` stays in-namespace across a whole solve;
the solver runs them with NumPy.  The unsuffixed public functions call
the same kernels with NumPy.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np


def _diag_coeff(spacing: Tuple[float, float, float]) -> float:
    """Diagonal coefficient of the 7-point Laplacian, -2 sum_d 1/h_d^2."""
    return -2.0 * sum(1.0 / (h * h) for h in spacing)


# --------------------------------------------------------------------- #
# array-API kernels (operate on arrays of the namespace ``xp``)
# --------------------------------------------------------------------- #
def laplacian_periodic_xp(xp: Any, u: Any, spacing: Tuple[float, float, float]) -> Any:
    """Periodic 7-point Laplacian in namespace ``xp``."""
    out = xp.zeros_like(u)
    for axis in range(3):
        h2 = spacing[axis] * spacing[axis]
        out += (xp.roll(u, 1, axis=axis) + xp.roll(u, -1, axis=axis) - 2.0 * u) / h2
    return out


def _neighbor_sum_xp(xp: Any, u: Any, spacing: Tuple[float, float, float]) -> Any:
    """Sum of neighbour values weighted by 1/h_d^2 (Laplacian minus diagonal)."""
    out = xp.zeros_like(u)
    for axis in range(3):
        h2 = spacing[axis] * spacing[axis]
        out += (xp.roll(u, 1, axis=axis) + xp.roll(u, -1, axis=axis)) / h2
    return out


def weighted_jacobi_xp(
    xp: Any,
    u: Any,
    f: Any,
    spacing: Tuple[float, float, float],
    sweeps: int = 2,
    omega: float = 2.0 / 3.0,
) -> Any:
    """Damped-Jacobi sweeps on ``L u = f`` in namespace ``xp``."""
    diag = _diag_coeff(spacing)
    u = xp.asarray(u, copy=True)
    for _ in range(sweeps):
        u_new = (f - _neighbor_sum_xp(xp, u, spacing)) / diag
        u = u + omega * (u_new - u)
    return u


def _parity_mask_xp(xp: Any, shape: Tuple[int, int, int]) -> Any:
    """Boolean mask of the red (i+j+k even) sub-lattice, by broadcast."""
    parity = xp.zeros(shape, dtype=xp.int64)
    for axis, n in enumerate(shape):
        idx_shape = [1, 1, 1]
        idx_shape[axis] = n
        parity = parity + xp.reshape(xp.arange(n), tuple(idx_shape))
    return parity % 2 == 0


def red_black_gauss_seidel_xp(
    xp: Any,
    u: Any,
    f: Any,
    spacing: Tuple[float, float, float],
    sweeps: int = 1,
) -> Any:
    """Red-black Gauss-Seidel sweeps on ``L u = f`` in namespace ``xp``.

    Each sub-lattice update is a ``where`` select rather than a
    boolean-mask assignment: the array API has no integer-array
    indexing, and ``where`` keeps the untouched sub-lattice bit-identical.
    """
    if any(n % 2 != 0 for n in u.shape):
        raise ValueError("red-black ordering needs even grid sizes on periodic grids")
    diag = _diag_coeff(spacing)
    red = _parity_mask_xp(xp, tuple(u.shape))
    black = ~red
    for _ in range(sweeps):
        for mask in (red, black):
            rhs = f - _neighbor_sum_xp(xp, u, spacing)
            u = xp.where(mask, rhs / diag, u)
    return u


def residual_xp(
    xp: Any, u: Any, f: Any, spacing: Tuple[float, float, float]
) -> Any:
    """Residual r = f - L u in namespace ``xp``."""
    return f - laplacian_periodic_xp(xp, u, spacing)


# --------------------------------------------------------------------- #
# host boundary wrappers (NumPy in / NumPy out)
# --------------------------------------------------------------------- #
def laplacian_periodic(u: np.ndarray, spacing: Tuple[float, float, float]) -> np.ndarray:
    """Apply the periodic 7-point Laplacian to a field."""
    return laplacian_periodic_xp(np, np.asarray(u), spacing)


def residual(
    u: np.ndarray, f: np.ndarray, spacing: Tuple[float, float, float]
) -> np.ndarray:
    """Residual r = f - L u."""
    return residual_xp(np, np.asarray(u), np.asarray(f), spacing)


def weighted_jacobi(
    u: np.ndarray,
    f: np.ndarray,
    spacing: Tuple[float, float, float],
    sweeps: int = 2,
    omega: float = 2.0 / 3.0,
) -> np.ndarray:
    """Damped-Jacobi relaxation sweeps on L u = f.

    Returns the relaxed field; the input array is not modified.
    """
    return weighted_jacobi_xp(
        np, np.asarray(u, dtype=float), np.asarray(f, dtype=float),
        spacing, sweeps=sweeps, omega=omega,
    )


def red_black_gauss_seidel(
    u: np.ndarray,
    f: np.ndarray,
    spacing: Tuple[float, float, float],
    sweeps: int = 1,
) -> np.ndarray:
    """Red-black Gauss-Seidel sweeps on L u = f (even grid sizes, periodic).

    Each sweep updates the red sub-lattice (i+j+k even) then the black one,
    which on even-sized periodic grids decouples exactly.  Returns the
    relaxed field; the input array is not modified.
    """
    return red_black_gauss_seidel_xp(
        np, np.asarray(u, dtype=float), np.asarray(f, dtype=float),
        spacing, sweeps=sweeps,
    )
