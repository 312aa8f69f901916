"""V-cycle multigrid Poisson solver on periodic grids.

Solves the Hartree problem

    nabla^2 V_H = -4 pi rho

in O(N) work per solve.  The hierarchy is built by repeated factor-two
coarsening; the coarsest level is solved exactly in Fourier space (it is
a handful of points).  Periodic boundary conditions leave the constant
mode undetermined, so the right-hand side is projected to zero mean and
the returned potential is mean-free.

The solve loop, the V-cycle and the coarsest-level FFT solve have one
body each, written on the array-API subset and run in the backend's
namespace ``xp`` (NumPy is one such namespace); host arrays cross the
boundary once per solve in each direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Tuple, Union

import numpy as np

from repro.backend import ArrayBackend, get_backend, to_numpy
from repro.grids.grid import Grid3D
from repro.obs import trace_span
from repro.multigrid.smoothers import (
    red_black_gauss_seidel_xp,
    residual_xp,
    weighted_jacobi_xp,
)
from repro.multigrid.transfer import (
    prolong_trilinear_xp,
    restrict_full_weighting_xp,
)


def solve_poisson_fft_xp(xp: Any, rho: Any, grid: Grid3D) -> Any:
    """FFT Poisson solve in namespace ``xp``.

    The discrete-Laplacian spectral division spelled on the array-API
    subset (``fft`` extension, ``reshape``, pointwise setitem on the null
    mode).  Takes and returns arrays of ``xp``.
    """
    if tuple(rho.shape) != grid.shape:
        raise ValueError(f"density shape {tuple(rho.shape)} != grid shape {grid.shape}")
    rho = rho - xp.mean(rho)
    rho_k = xp.fft.fftn(rho)
    eig = xp.zeros(grid.shape)
    for axis, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        k = xp.fft.fftfreq(n) * (2.0 * xp.pi)
        lam = (2.0 * xp.cos(k) - 2.0) / (h * h)  # eigenvalues of 1-D FD Laplacian
        shape = [1, 1, 1]
        shape[axis] = n
        eig = eig + xp.reshape(lam, tuple(shape))
    eig[0, 0, 0] = 1.0  # avoid division by zero on the null mode
    v_k = (-4.0 * xp.pi) * rho_k / eig
    v_k[0, 0, 0] = 0.0
    v = xp.real(xp.fft.ifftn(v_k))
    return v - xp.mean(v)


def solve_poisson_fft(
    rho: np.ndarray,
    grid: Grid3D,
    backend: Union[str, ArrayBackend, None] = None,
) -> np.ndarray:
    """Exact periodic Poisson solve via FFT (reference / coarse-level solver).

    Solves nabla^2 V = -4 pi rho with the *discrete* 7-point Laplacian so
    that the result is consistent with the multigrid operator.
    """
    b = get_backend(backend)
    x_rho = b.asarray(np.asarray(rho, dtype=float))
    return to_numpy(solve_poisson_fft_xp(b.xp, x_rho, grid))


def _norm_xp(xp: Any, x: Any) -> float:
    """2-norm of a field, spelled so NumPy matches ``np.linalg.norm`` bitwise."""
    v = xp.reshape(x, (-1,))
    return float(xp.sqrt(xp.vecdot(v, v)))


@dataclass
class MultigridStats:
    """Convergence record of one multigrid solve."""

    cycles: int = 0
    residual_norms: List[float] = field(default_factory=list)
    converged: bool = False

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("inf")

    @property
    def mean_contraction(self) -> float:
        """Geometric-mean residual contraction factor per V-cycle."""
        r = self.residual_norms
        if len(r) < 2 or r[0] == 0.0:
            return 0.0
        return (r[-1] / r[0]) ** (1.0 / (len(r) - 1))


class PoissonMultigrid:
    """Geometric multigrid solver for the periodic Poisson equation.

    Parameters
    ----------
    grid:
        The finest grid.
    pre_sweeps, post_sweeps:
        Relaxation sweeps before/after coarse-grid correction; None
        resolves from the active
        :class:`~repro.tuning.profile.TuningProfile` (the
        ``multigrid.poisson`` tunable).  Explicit 0 is honoured -- only
        None triggers profile resolution.
    smoother:
        ``"jacobi"`` (damped, omega=2/3) or ``"rbgs"`` (red-black
        Gauss-Seidel; needs even grid sizes, which the hierarchy has by
        construction); None resolves from the active tuning profile.
    min_points:
        Stop coarsening when any axis would drop below this; the coarsest
        level is solved exactly by FFT.
    backend:
        Array-API substrate (name or handle); None resolves from the
        active tuning profile (falling back to ``"numpy"`` for profiles
        persisted before the backend dimension existed).  The whole
        solve runs in the backend's namespace -- host data crosses the
        boundary once per solve in each direction.
    """

    def __init__(
        self,
        grid: Grid3D,
        pre_sweeps: int | None = None,
        post_sweeps: int | None = None,
        smoother: str | None = None,
        min_points: int = 4,
        backend: Union[str, ArrayBackend, None] = None,
    ) -> None:
        from repro.tuning.profile import get_active_profile

        params = get_active_profile().params_for("multigrid.poisson")
        if pre_sweeps is None:
            pre_sweeps = int(params["pre_sweeps"])  # type: ignore[arg-type]
        if post_sweeps is None:
            post_sweeps = int(params["post_sweeps"])  # type: ignore[arg-type]
        if smoother is None:
            smoother = str(params["smoother"])
        if backend is None:
            backend = str(params.get("backend", "numpy"))
        if smoother not in ("jacobi", "rbgs"):
            raise ValueError("smoother must be 'jacobi' or 'rbgs'")
        self.pre_sweeps = int(pre_sweeps)
        self.post_sweeps = int(post_sweeps)
        self.smoother = smoother
        self.backend = get_backend(backend)
        self.levels: List[Grid3D] = [grid]
        g = grid
        while all(n % 2 == 0 and n // 2 >= min_points for n in g.shape):
            g = g.coarsen()
            self.levels.append(g)

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    def _smooth(self, u: Any, f: Any, grid: Grid3D, sweeps: int) -> Any:
        xp = self.backend.xp
        if self.smoother == "jacobi":
            return weighted_jacobi_xp(xp, u, f, grid.spacing, sweeps=sweeps)
        return red_black_gauss_seidel_xp(xp, u, f, grid.spacing, sweeps=sweeps)

    def _vcycle(self, u: Any, f: Any, level: int) -> Any:
        xp = self.backend.xp
        grid = self.levels[level]
        if level == self.nlevels - 1:
            # Coarsest level: exact solve of L u = f.  The FFT solver
            # solves L v = -4 pi rho, so pass rho = -f / (4 pi).
            return solve_poisson_fft_xp(xp, -f / (4.0 * xp.pi), grid)
        u = self._smooth(u, f, grid, self.pre_sweeps)
        r = residual_xp(xp, u, f, grid.spacing)
        r_coarse = restrict_full_weighting_xp(xp, r)
        e_coarse = self._vcycle(xp.zeros_like(r_coarse), r_coarse, level + 1)
        u = u + prolong_trilinear_xp(xp, e_coarse, grid.shape)
        u = self._smooth(u, f, grid, self.post_sweeps)
        return u

    def solve(
        self,
        rho: np.ndarray,
        tol: float = 1e-8,
        max_cycles: int = 50,
        initial_guess: np.ndarray | None = None,
    ) -> Tuple[np.ndarray, MultigridStats]:
        """Solve nabla^2 V = -4 pi rho to relative residual ``tol``.

        Returns the mean-free potential and a :class:`MultigridStats`
        convergence record.
        """
        grid = self.levels[0]
        rho = np.asarray(rho, dtype=float)
        if rho.shape != grid.shape:
            raise ValueError(f"density shape {rho.shape} != grid shape {grid.shape}")
        b = self.backend
        xp = b.xp
        x_rho = b.asarray(rho)
        f = (-4.0 * xp.pi) * (x_rho - xp.mean(x_rho))
        stats = MultigridStats()
        f_norm = _norm_xp(xp, f)
        if f_norm == 0.0:
            # The only mean-free solution of nabla^2 V = 0 is V = 0; an
            # initial guess is stale here, not a starting point.
            stats.converged = True
            stats.residual_norms.append(0.0)
            return np.zeros(grid.shape), stats
        if initial_guess is None:
            u = xp.zeros(grid.shape)
        else:
            u = b.asarray(np.asarray(initial_guess, dtype=float))
        u = u - xp.mean(u)
        stats.residual_norms.append(_norm_xp(xp, residual_xp(xp, u, f, grid.spacing)))
        with trace_span("poisson.solve", "hartree", npoints=grid.npoints,
                        nlevels=self.nlevels, backend=b.name):
            for cycle in range(max_cycles):
                with trace_span("poisson.vcycle", "hartree", cycle=cycle + 1):
                    u = self._vcycle(u, f, 0)
                u = u - xp.mean(u)
                r = _norm_xp(xp, residual_xp(xp, u, f, grid.spacing))
                stats.cycles = cycle + 1
                stats.residual_norms.append(r)
                if r <= tol * f_norm:
                    stats.converged = True
                    break
        return to_numpy(u), stats

    def work_units(self) -> float:
        """Total grid points touched per V-cycle, in units of fine points.

        For a factor-8 coarsening this is bounded by 8/7 ~ 1.14, the
        signature of O(N) complexity.
        """
        fine = self.levels[0].npoints
        return sum(g.npoints for g in self.levels) / fine
