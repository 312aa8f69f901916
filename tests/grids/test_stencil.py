"""Kinetic-stencil and pair-splitting tests: unitarity, accuracy, Peierls."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.grids.stencil import (
    PairSplitCoefficients,
    kinetic_diagonal,
    kinetic_matrix_1d,
    kinetic_offdiagonal,
    pair_split_coefficients,
    pair_split_matrix,
    strang_passes,
)


class TestKineticMatrix:
    def test_diagonal_offdiagonal_relation(self):
        assert kinetic_offdiagonal(0.5) == pytest.approx(-0.5 * kinetic_diagonal(0.5))
        with pytest.raises(ValueError):
            kinetic_diagonal(0.0)

    def test_matrix_hermitian(self):
        t = kinetic_matrix_1d(8, 0.5, theta=0.37)
        assert np.allclose(t, t.conj().T)

    def test_plane_wave_eigenvalue(self):
        """exp(ikx) diagonalizes the periodic stencil with 2(1-cos k)/2h^2."""
        n, h = 16, 0.4
        t = kinetic_matrix_1d(n, h)
        k = 2.0 * np.pi * 3 / n  # mode index 3
        psi = np.exp(1j * k * np.arange(n))
        lam = (1.0 - np.cos(k)) / (h * h)
        assert np.allclose(t @ psi, lam * psi)

    def test_matrix_small_n_raises(self):
        with pytest.raises(ValueError):
            kinetic_matrix_1d(1, 0.5)


class TestPairSplit:
    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("theta", [0.0, 0.41, -1.3])
    def test_pass_exactly_unitary(self, parity, theta):
        c = pair_split_coefficients(10, 0.5, 0.03, parity, theta=theta)
        m = pair_split_matrix(c)
        assert np.abs(m @ m.conj().T - np.eye(10)).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 4, 10])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_matrix_matches_pointwise_loop(self, n, parity):
        """The vectorized matrix equals the point-by-point construction."""
        c = pair_split_coefficients(n, 0.5, 0.03, parity, theta=0.41)
        ref = np.zeros((n, n), dtype=np.complex128)
        for i in range(n):
            ref[i, i] = c.al
            ref[i, (i - 1) % n] += c.bl[i]
            ref[i, (i + 1) % n] += c.bu[i]
        assert np.array_equal(pair_split_matrix(c), ref)

    def test_one_neighbor_per_point(self):
        c = pair_split_coefficients(8, 0.5, 0.02, parity=0)
        nonzero = (np.abs(c.bl) > 0).astype(int) + (np.abs(c.bu) > 0).astype(int)
        assert np.all(nonzero == 1)

    def test_even_odd_complementary(self):
        even = pair_split_coefficients(8, 0.5, 0.02, parity=0)
        odd = pair_split_coefficients(8, 0.5, 0.02, parity=1)
        # A point reading "up" in the even pass reads "down" in the odd pass.
        assert np.all((np.abs(even.bu) > 0) == (np.abs(odd.bl) > 0))

    def test_odd_grid_size_rejected(self):
        with pytest.raises(ValueError):
            pair_split_coefficients(7, 0.5, 0.02, parity=0)

    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError):
            pair_split_coefficients(8, 0.5, 0.02, parity=2)

    def test_sum_of_blocks_is_kinetic(self):
        """The generators of the two passes sum to the kinetic matrix."""
        n, h, theta = 8, 0.5, 0.3
        dt = 1e-6  # linearize exp(-i dt B) ~ 1 - i dt B
        even = pair_split_matrix(pair_split_coefficients(n, h, dt, 0, theta))
        odd = pair_split_matrix(pair_split_coefficients(n, h, dt, 1, theta))
        gen = (np.eye(n) - even) / (1j * dt) + (np.eye(n) - odd) / (1j * dt)
        assert np.abs(gen - kinetic_matrix_1d(n, h, theta=theta)).max() < 1e-4


class TestStrang:
    def test_second_order_accuracy(self):
        """Strang error should scale as O(dt^3) per step (local error)."""
        n, h = 8, 0.5
        t = kinetic_matrix_1d(n, h)
        errs = []
        for dt in (0.04, 0.02, 0.01):
            u_exact = sla.expm(-1j * dt * t)
            a, b, c = strang_passes(n, h, dt)
            u = pair_split_matrix(a) @ pair_split_matrix(b) @ pair_split_matrix(c)
            errs.append(np.abs(u - u_exact).max())
        # halving dt should reduce the error by ~8x
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(8.0, rel=0.25)

    def test_strang_with_peierls_phase(self):
        n, h, theta = 10, 0.4, 0.8
        t = kinetic_matrix_1d(n, h, theta=theta)
        dt = 0.01
        u_exact = sla.expm(-1j * dt * t)
        a, b, c = strang_passes(n, h, dt, theta=theta)
        u = pair_split_matrix(a) @ pair_split_matrix(b) @ pair_split_matrix(c)
        assert np.abs(u - u_exact).max() < 1e-5

    def test_strang_product_unitary(self):
        a, b, c = strang_passes(12, 0.5, 0.1, theta=0.2)
        u = pair_split_matrix(a) @ pair_split_matrix(b) @ pair_split_matrix(c)
        assert np.abs(u @ u.conj().T - np.eye(12)).max() < 1e-13

    def test_mass_dependence(self):
        """Heavier mass -> slower dynamics -> propagator closer to identity."""
        light = strang_passes(8, 0.5, 0.05, mass=1.0)
        heavy = strang_passes(8, 0.5, 0.05, mass=100.0)
        u_l = pair_split_matrix(light[0])
        u_h = pair_split_matrix(heavy[0])
        assert np.abs(u_h - np.eye(8)).max() < np.abs(u_l - np.eye(8)).max()


def test_coefficients_dataclass_fields():
    c = pair_split_coefficients(8, 0.5, 0.02, parity=1, theta=0.1)
    assert isinstance(c, PairSplitCoefficients)
    assert c.n == 8
    assert c.parity == 1
    assert c.dt == 0.02
