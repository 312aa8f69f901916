"""Inter-grid transfer operators for the periodic multigrid hierarchy.

Restriction is full weighting (separable [1/4, 1/2, 1/4] per axis followed
by subsampling on even points); prolongation is its adjoint-scaled
trilinear interpolation.  Both assume even grid sizes and periodic wrap,
matching the vertex-centred hierarchy produced by :meth:`Grid3D.coarsen`.

Each operator has one body: the ``_xp`` kernel, spelled with strided
slicing and ``roll`` only (both in the array-API subset) and run in
whatever namespace ``xp`` it is given; the V-cycle chains them with
NumPy, and the unsuffixed public functions call them with NumPy.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def restrict_full_weighting_xp(xp: Any, fine: Any) -> Any:
    """Full-weighting restriction in namespace ``xp``."""
    if len(fine.shape) != 3:
        raise ValueError("expected a 3-D field")
    if any(n % 2 != 0 for n in fine.shape):
        raise ValueError(f"cannot restrict odd-sized field {fine.shape}")
    out = fine
    for axis in range(3):
        out = 0.5 * out + 0.25 * (
            xp.roll(out, 1, axis=axis) + xp.roll(out, -1, axis=axis)
        )
    return xp.asarray(out[::2, ::2, ::2], copy=True)


def prolong_trilinear_xp(xp: Any, coarse: Any, fine_shape) -> Any:
    """Trilinear prolongation in namespace ``xp``."""
    if len(coarse.shape) != 3:
        raise ValueError("expected a 3-D field")
    if tuple(2 * n for n in coarse.shape) != tuple(fine_shape):
        raise ValueError(
            f"fine shape {fine_shape} is not double the coarse shape {coarse.shape}"
        )
    out = coarse
    for axis in range(3):
        n = out.shape[axis]
        new_shape = list(out.shape)
        new_shape[axis] = 2 * n
        up = xp.empty(tuple(new_shape), dtype=out.dtype)
        even = [slice(None)] * 3
        odd = [slice(None)] * 3
        even[axis] = slice(0, 2 * n, 2)
        odd[axis] = slice(1, 2 * n, 2)
        up[tuple(even)] = out
        up[tuple(odd)] = 0.5 * (out + xp.roll(out, -1, axis=axis))
        out = up
    return out


def restrict_full_weighting(fine: np.ndarray) -> np.ndarray:
    """Restrict a fine-grid field to the next coarser periodic grid.

    The coarse point ``i`` coincides with fine point ``2 i``; its value is
    the 27-point full-weighted average of the fine field around that point.
    """
    return restrict_full_weighting_xp(np, np.asarray(fine))


def prolong_trilinear(
    coarse: np.ndarray,
    fine_shape: tuple[int, int, int],
) -> np.ndarray:
    """Trilinear interpolation of a coarse field onto the doubled fine grid.

    Fine even points copy the coarse value, odd points average the two
    flanking coarse points; tensor product over the three axes.
    """
    return prolong_trilinear_xp(np, np.asarray(coarse), fine_shape)
