"""Shared fixtures: small grids, seeded RNGs, wave functions, atoms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grids import Grid3D, DomainDecomposition
from repro.lfd import WaveFunctionSet
from repro.pseudo import get_species


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240612)


@pytest.fixture
def grid8() -> Grid3D:
    """Tiny cubic grid (8^3, h = 0.5)."""
    return Grid3D.cubic(8, 0.5)


@pytest.fixture
def grid12() -> Grid3D:
    return Grid3D.cubic(12, 0.5)


@pytest.fixture
def grid16() -> Grid3D:
    return Grid3D.cubic(16, 0.6)


@pytest.fixture
def aniso_grid() -> Grid3D:
    """Anisotropic grid to catch axis-confusion bugs."""
    return Grid3D((8, 10, 12), (0.5, 0.45, 0.4))


@pytest.fixture
def wf_small(grid8, rng) -> WaveFunctionSet:
    return WaveFunctionSet.random(grid8, 4, rng)


@pytest.fixture
def wf_medium(grid12, rng) -> WaveFunctionSet:
    return WaveFunctionSet.random(grid12, 6, rng)


@pytest.fixture
def h2_system(grid16):
    """Two hydrogen-like pseudo-atoms in the 16^3 cell."""
    L = grid16.lengths[0]
    positions = np.array(
        [[L / 2 - 0.7, L / 2, L / 2], [L / 2 + 0.7, L / 2, L / 2]]
    )
    species = [get_species("H"), get_species("H")]
    return grid16, positions, species


@pytest.fixture
def o2_system(grid16):
    """Two oxygen pseudo-atoms (have KB projectors -> nonzero scissor)."""
    L = grid16.lengths[0]
    positions = np.array(
        [[L / 2 - 1.1, L / 2, L / 2], [L / 2 + 1.1, L / 2, L / 2]]
    )
    species = [get_species("O"), get_species("O")]
    return grid16, positions, species


@pytest.fixture
def decomposition16(grid16) -> DomainDecomposition:
    return DomainDecomposition(grid16, (2, 1, 1), buffer_width=3)


@pytest.fixture(scope="session", params=["numpy", "array_api_strict"])
def xp(request):
    """Each conformance namespace of the xp-first kernels.

    A test taking this fixture runs once with NumPy (what production
    calls the kernels with) and once with the strict namespace of
    :mod:`tests.backend.namespaces`, which rejects any silent NumPy
    round trip of its arrays.
    """
    if request.param == "numpy":
        return np
    from tests.backend.namespaces import strict_namespace

    return strict_namespace()
