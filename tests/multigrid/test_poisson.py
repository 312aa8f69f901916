"""Multigrid Poisson solver: convergence, O(N) work, FFT agreement."""

import numpy as np
import pytest

from repro.grids import Grid3D
from repro.multigrid import PoissonMultigrid, solve_poisson_fft
from repro.multigrid.smoothers import laplacian_periodic


@pytest.fixture
def grid32() -> Grid3D:
    return Grid3D.cubic(32, 0.4)


def random_density(grid, rng):
    rho = rng.standard_normal(grid.shape)
    return rho - rho.mean()


class TestFFTReference:
    def test_solves_discrete_operator(self, grid16, rng):
        rho = random_density(grid16, rng)
        v = solve_poisson_fft(rho, grid16)
        lhs = laplacian_periodic(v, grid16.spacing)
        assert np.allclose(lhs, -4 * np.pi * rho, atol=1e-9)

    def test_mean_free(self, grid16, rng):
        v = solve_poisson_fft(random_density(grid16, rng), grid16)
        assert abs(v.mean()) < 1e-12

    def test_point_charge_coulomb_tail(self):
        """The potential of a compact charge ~ q/r near the charge.

        Far from the charge the periodic images and the neutralizing
        background bend the tail, so only the near field is compared.
        """
        g = Grid3D.cubic(32, 0.5)
        rho = g.zeros()
        rho[16, 16, 16] = 1.0 / g.dvol  # unit charge
        v = solve_poisson_fft(rho, g)
        profile = v[16:16 + 12, 16, 16]
        # Monotonic decay away from the charge...
        assert np.all(np.diff(profile) < 0)
        # ...and Coulombic magnitude at r = 2 mesh points (1 bohr).
        assert profile[2] == pytest.approx(1.0, rel=0.2)

    def test_shape_mismatch(self, grid16):
        with pytest.raises(ValueError):
            solve_poisson_fft(np.zeros((4, 4, 4)), grid16)


class TestMultigrid:
    def test_matches_fft(self, grid32, rng):
        rho = random_density(grid32, rng)
        mg = PoissonMultigrid(grid32)
        v, stats = mg.solve(rho, tol=1e-10)
        assert stats.converged
        v_ref = solve_poisson_fft(rho, grid32)
        assert np.abs(v - v_ref).max() < 1e-7 * np.abs(v_ref).max() + 1e-9

    def test_converges_in_few_cycles(self, grid32, rng):
        mg = PoissonMultigrid(grid32)
        _, stats = mg.solve(random_density(grid32, rng), tol=1e-8)
        assert stats.cycles <= 12
        assert stats.mean_contraction < 0.35

    def test_work_units_bounded(self, grid32):
        """Geometric coarsening gives < 8/7 fine-grid-equivalents per cycle."""
        mg = PoissonMultigrid(grid32)
        assert mg.nlevels >= 3
        assert mg.work_units() < 8.0 / 7.0 + 1e-9

    def test_cycles_independent_of_size(self, rng):
        """O(N): V-cycle count does not grow with problem size."""
        cycles = []
        for n in (16, 32):
            g = Grid3D.cubic(n, 0.4)
            mg = PoissonMultigrid(g)
            rho = rng.standard_normal(g.shape)
            rho -= rho.mean()
            _, stats = mg.solve(rho, tol=1e-8)
            cycles.append(stats.cycles)
        assert abs(cycles[1] - cycles[0]) <= 2

    def test_jacobi_smoother_variant(self, grid16, rng):
        mg = PoissonMultigrid(grid16, smoother="jacobi", pre_sweeps=3, post_sweeps=3)
        v, stats = mg.solve(random_density(grid16, rng), tol=1e-8)
        assert stats.converged

    def test_zero_density_trivial(self, grid16):
        mg = PoissonMultigrid(grid16)
        v, stats = mg.solve(np.zeros(grid16.shape))
        assert stats.converged
        assert np.all(v == 0.0)

    def test_zero_rhs_ignores_initial_guess(self, grid16, rng):
        """A zero density has V = 0, whatever the guess."""
        mg = PoissonMultigrid(grid16)
        guess = rng.standard_normal(grid16.shape)
        v, stats = mg.solve(np.zeros(grid16.shape), initial_guess=guess)
        assert stats.converged
        assert stats.cycles == 0
        assert np.all(v == 0.0)

    @pytest.mark.parametrize("value", [0.3, -7.0, 1e4])
    def test_uniform_density_is_a_zero_rhs(self, grid16, rng, value):
        """A uniform density leaves only rounding noise after the mean
        subtraction: V = 0 at once, not 50 stalled V-cycles."""
        from repro.qxmd.hartree import hartree_potential

        rho = np.full(grid16.shape, value)
        assert np.all(hartree_potential(rho, grid16) == 0.0)
        guess = rng.standard_normal(grid16.shape)
        v, stats = PoissonMultigrid(grid16).solve(rho, initial_guess=guess)
        assert stats.converged
        assert stats.cycles == 0
        assert np.all(v == 0.0)

    def test_small_density_over_a_large_mean_still_solves(self, grid16, rng):
        """Only round-off counts as zero: a 1e-9 ripple on a uniform
        background is solved like any other density."""
        ripple = 1e-9 * random_density(grid16, rng)
        v, stats = PoissonMultigrid(grid16).solve(5.0 + ripple, tol=1e-6)
        assert stats.converged and stats.cycles > 0
        ref = solve_poisson_fft(ripple, grid16)
        assert np.max(np.abs(v - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_initial_guess_speeds_convergence(self, grid32, rng):
        rho = random_density(grid32, rng)
        mg = PoissonMultigrid(grid32)
        v, stats_cold = mg.solve(rho, tol=1e-9)
        _, stats_warm = mg.solve(rho, tol=1e-9, initial_guess=v)
        assert stats_warm.cycles <= stats_cold.cycles

    def test_invalid_smoother(self, grid16):
        with pytest.raises(ValueError):
            PoissonMultigrid(grid16, smoother="sor")

    def test_linearity(self, grid16, rng):
        """Solve(a rho1 + b rho2) = a Solve(rho1) + b Solve(rho2)."""
        mg = PoissonMultigrid(grid16)
        r1 = random_density(grid16, rng)
        r2 = random_density(grid16, rng)
        v1, _ = mg.solve(r1, tol=1e-11)
        v2, _ = mg.solve(r2, tol=1e-11)
        v12, _ = mg.solve(2.0 * r1 - 0.5 * r2, tol=1e-11)
        assert np.abs(v12 - (2.0 * v1 - 0.5 * v2)).max() < 1e-6


class TestAnisotropicGrids:
    def test_fft_reference_anisotropic(self, aniso_grid, rng):
        rho = rng.standard_normal(aniso_grid.shape)
        rho -= rho.mean()
        v = solve_poisson_fft(rho, aniso_grid)
        lhs = laplacian_periodic(v, aniso_grid.spacing)
        assert np.allclose(lhs, -4 * np.pi * rho, atol=1e-9)

    def test_multigrid_anisotropic_matches_fft(self, rng):
        # Moderately anisotropic spacings (strong anisotropy would need
        # line smoothers; point smoothers handle this regime fine).
        g = Grid3D((16, 16, 16), (0.5, 0.45, 0.6))
        rho = rng.standard_normal(g.shape)
        rho -= rho.mean()
        mg = PoissonMultigrid(g)
        v, stats = mg.solve(rho, tol=1e-9, max_cycles=60)
        assert stats.converged
        ref = solve_poisson_fft(rho, g)
        assert np.abs(v - ref).max() < 1e-6 * np.abs(ref).max() + 1e-10
