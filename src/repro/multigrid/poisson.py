"""V-cycle multigrid Poisson solver on periodic grids.

Solves the Hartree problem

    nabla^2 V_H = -4 pi rho

in O(N) work per solve.  The hierarchy is built by repeated factor-two
coarsening; the coarsest level is solved exactly in Fourier space (it is
a handful of points).  Periodic boundary conditions leave the constant
mode undetermined, so the right-hand side is projected to zero mean and
the returned potential is mean-free.

The solve loop, the V-cycle and the coarsest-level FFT solve have one
body each, written on the array-API subset against a namespace ``xp``;
the solver runs them with NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

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


def solve_poisson_fft(rho: np.ndarray, grid: Grid3D) -> np.ndarray:
    """Exact periodic Poisson solve via FFT (reference / coarse-level solver).

    Solves nabla^2 V = -4 pi rho with the *discrete* 7-point Laplacian so
    that the result is consistent with the multigrid operator.
    """
    return solve_poisson_fft_xp(np, np.asarray(rho, dtype=float), grid)


#: Relative size, against 4 pi |rho|, below which the mean-free
#: right-hand side is rounding noise: the mean subtraction errs by a few
#: ulps of each point, plus the summation error of the mean.
_ROUNDOFF = 64.0 * float(np.finfo(float).eps)


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
    """

    def __init__(
        self,
        grid: Grid3D,
        pre_sweeps: int | None = None,
        post_sweeps: int | None = None,
        smoother: str | None = None,
        min_points: int = 4,
    ) -> None:
        from repro.tuning.profile import get_active_profile

        params = get_active_profile().params_for("multigrid.poisson")
        if pre_sweeps is None:
            pre_sweeps = int(params["pre_sweeps"])  # type: ignore[arg-type]
        if post_sweeps is None:
            post_sweeps = int(params["post_sweeps"])  # type: ignore[arg-type]
        if smoother is None:
            smoother = str(params["smoother"])
        if smoother not in ("jacobi", "rbgs"):
            raise ValueError("smoother must be 'jacobi' or 'rbgs'")
        self.pre_sweeps = int(pre_sweeps)
        self.post_sweeps = int(post_sweeps)
        self.smoother = smoother
        self.levels: List[Grid3D] = [grid]
        g = grid
        while all(n % 2 == 0 and n // 2 >= min_points for n in g.shape):
            g = g.coarsen()
            self.levels.append(g)

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    def _smooth(self, xp: Any, u: Any, f: Any, grid: Grid3D, sweeps: int) -> Any:
        if self.smoother == "jacobi":
            return weighted_jacobi_xp(xp, u, f, grid.spacing, sweeps=sweeps)
        return red_black_gauss_seidel_xp(xp, u, f, grid.spacing, sweeps=sweeps)

    def _vcycle(self, xp: Any, u: Any, f: Any, level: int) -> Any:
        grid = self.levels[level]
        if level == self.nlevels - 1:
            # Coarsest level: exact solve of L u = f.  The FFT solver
            # solves L v = -4 pi rho, so pass rho = -f / (4 pi).
            return solve_poisson_fft_xp(xp, -f / (4.0 * xp.pi), grid)
        u = self._smooth(xp, u, f, grid, self.pre_sweeps)
        r = residual_xp(xp, u, f, grid.spacing)
        r_coarse = restrict_full_weighting_xp(xp, r)
        e_coarse = self._vcycle(xp, xp.zeros_like(r_coarse), r_coarse, level + 1)
        u = u + prolong_trilinear_xp(xp, e_coarse, grid.shape)
        u = self._smooth(xp, u, f, grid, self.post_sweeps)
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
        if initial_guess is not None:
            initial_guess = np.asarray(initial_guess, dtype=float)
        return self.solve_xp(np, rho, tol, max_cycles, initial_guess)

    def solve_xp(
        self,
        xp: Any,
        rho: Any,
        tol: float = 1e-8,
        max_cycles: int = 50,
        initial_guess: Optional[Any] = None,
    ) -> Tuple[Any, MultigridStats]:
        """The body of :meth:`solve` in namespace ``xp``: takes and
        returns arrays of ``xp``.

        A right-hand side at round-off level relative to ``rho`` (a
        uniform density, whose mean subtraction leaves only rounding
        noise) is zero: the only mean-free solution is V = 0, and no
        V-cycle can reduce a residual made of rounding noise.
        """
        grid = self.levels[0]
        f = (-4.0 * xp.pi) * (rho - xp.mean(rho))
        stats = MultigridStats()
        f_norm = _norm_xp(xp, f)
        if f_norm <= _ROUNDOFF * 4.0 * xp.pi * _norm_xp(xp, rho):
            # An initial guess is stale here, not a starting point.
            stats.converged = True
            stats.residual_norms.append(0.0)
            return xp.zeros(grid.shape), stats
        u = xp.zeros(grid.shape) if initial_guess is None else initial_guess
        u = u - xp.mean(u)
        stats.residual_norms.append(_norm_xp(xp, residual_xp(xp, u, f, grid.spacing)))
        with trace_span("poisson.solve", "hartree", npoints=grid.npoints,
                        nlevels=self.nlevels):
            for cycle in range(max_cycles):
                with trace_span("poisson.vcycle", "hartree", cycle=cycle + 1):
                    u = self._vcycle(xp, u, f, 0)
                u = u - xp.mean(u)
                r = _norm_xp(xp, residual_xp(xp, u, f, grid.spacing))
                stats.cycles = cycle + 1
                stats.residual_norms.append(r)
                if r <= tol * f_norm:
                    stats.converged = True
                    break
        return u, stats

    def work_units(self) -> float:
        """Total grid points touched per V-cycle, in units of fine points.

        For a factor-8 coarsening this is bounded by 8/7 ~ 1.14, the
        signature of O(N) complexity.
        """
        fine = self.levels[0].npoints
        return sum(g.npoints for g in self.levels) / fine
