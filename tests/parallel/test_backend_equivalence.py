"""Differential harness: the three executor backends produce one physics.

The headline guarantee of the backend abstraction, asserted end to end:
identical seeded DC-MESH trajectories through the serial, thread, and
process backends.  Serial vs thread must be **bit-identical** (threads
run the same floating-point program on the caller's arrays); serial vs
process must agree to <= 1e-12 on every observable (in practice it is
also bit-identical -- workers run the same program on copied inputs --
and the tolerance is headroom, not slack in the contract).

Property-based tests additionally pin the two invariances the executor
design promises: worker count and chunking never change physics, and
the domain count changes physics only through the decomposition itself,
never through the backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mesh import DCMESHConfig, DCMESHSimulation
from repro.core.timescale import TimescaleSplit
from repro.grids.domain import DomainDecomposition
from repro.grids.grid import Grid3D
from repro.maxwell.laser import GaussianPulse
from repro.parallel.backends import ProcessBackend, SerialBackend, ThreadBackend
from repro.pseudo.elements import get_species
from repro.qxmd.dftsolver import GlobalDCSolver
from repro.qxmd.scf import SCFConfig, SCFTask, scf_solve_batch

NSTEPS = 20


def _make_sim(executor=None) -> DCMESHSimulation:
    grid = Grid3D((12, 12, 12), (0.6,) * 3)
    L = grid.lengths[0]
    positions = np.array([[L / 4, L / 2, L / 2], [3 * L / 4, L / 2, L / 2]])
    species = [get_species("H"), get_species("H")]
    laser = GaussianPulse(e0=0.02, omega=0.3, t0=10.0, sigma=6.0)
    config = DCMESHConfig(
        timescale=TimescaleSplit(dt_md=2.0, n_qd=4),
        nscf=1, ncg=1, norb_extra=1, seed=99,
    )
    sim = DCMESHSimulation(
        grid, (2, 1, 1), positions, species,
        laser=laser, config=config, buffer_width=2, executor=executor,
    )
    sim.excite_carrier(0)
    return sim


def _signature(sim: DCMESHSimulation, nsteps: int = NSTEPS) -> dict:
    """Run a trajectory and collect every physics observable we compare."""
    records = sim.run(nsteps)
    return {
        "band_energy": np.array([r.band_energy for r in records]),
        "temperature": np.array([r.temperature for r in records]),
        "excited": np.array([r.excited_population for r in records]),
        "scissors": np.array([r.scissor_shifts for r in records]),
        "positions": sim.md_state.positions.copy(),
        "velocities": sim.md_state.velocities.copy(),
        "forces": sim._prev_forces.copy(),
        "occupations": np.concatenate(
            [s.occupations for s in sim.dc.states]
        ),
        "eigenvalues": np.concatenate(
            [s.eigenvalues for s in sim.dc.states]
        ),
    }


def _assert_signatures(ref: dict, got: dict, atol: float) -> None:
    for key, expect in ref.items():
        if atol == 0.0:
            assert np.array_equal(expect, got[key]), key
        else:
            np.testing.assert_allclose(
                got[key], expect, rtol=0.0, atol=atol, err_msg=key
            )


@pytest.fixture(scope="module")
def serial_signature():
    with SerialBackend(seed=99) as ex:
        return _signature(_make_sim(ex))


class TestTrajectoryEquivalence:
    def test_thread_bit_identical(self, serial_signature):
        with ThreadBackend(workers=2, seed=99) as ex:
            sig = _signature(_make_sim(ex))
        _assert_signatures(serial_signature, sig, atol=0.0)

    def test_process_within_1e12(self, serial_signature):
        with ProcessBackend(workers=2, seed=99) as ex:
            sig = _signature(_make_sim(ex))
        _assert_signatures(serial_signature, sig, atol=1e-12)

    def test_default_executor_is_serial(self, serial_signature):
        sig = _signature(_make_sim(executor=None))
        _assert_signatures(serial_signature, sig, atol=0.0)


def _distributed_solve(executor=None, nranks=2):
    grid = Grid3D((12, 12, 12), (0.6,) * 3)
    L = grid.lengths[0]
    dec = DomainDecomposition(grid, (2, 2, 1), buffer_width=2)
    positions = np.array(
        [[L / 4, L / 4, L / 2], [3 * L / 4, L / 4, L / 2],
         [L / 4, 3 * L / 4, L / 2], [3 * L / 4, 3 * L / 4, L / 2]]
    )
    species = [get_species("H")] * 4
    solver = GlobalDCSolver(
        grid, dec, positions, species, nranks=nranks,
        norb_extra=1, nscf=2, ncg=1, seed=5, executor=executor,
    )
    result = solver.solve()
    return result, grid, dec, positions, species


class TestDistributedEquivalence:
    def test_thread_matches_serial_backend_bitwise(self):
        ref, *_ = _distributed_solve(SerialBackend(seed=5))
        with ThreadBackend(workers=3, seed=5) as ex:
            got, *_ = _distributed_solve(ex)
        assert np.array_equal(ref.rho_global, got.rho_global)
        assert ref.energy_history == got.energy_history
        for a, b in zip(ref.states, got.states):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_process_matches_serial_backend(self):
        ref, *_ = _distributed_solve(SerialBackend(seed=5))
        with ProcessBackend(workers=2, seed=5) as ex:
            got, *_ = _distributed_solve(ex)
        np.testing.assert_allclose(
            got.rho_global, ref.rho_global, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            got.energy_history, ref.energy_history, rtol=0.0, atol=1e-12
        )

    def test_distributed_still_matches_global_solver(self):
        """The executor routing must not break rank/serial agreement."""
        with ThreadBackend(workers=2, seed=5) as ex:
            dist, grid, dec, positions, species = _distributed_solve(ex)
        serial = GlobalDCSolver(
            grid, dec, positions, species, norb_extra=1, nscf=2, ncg=1,
            seed=5,
        ).solve()
        assert np.array_equal(dist.rho_global, serial.rho_global)


class TestSCFBatchEquivalence:
    @staticmethod
    def _tasks():
        grid = Grid3D((10, 10, 10), (0.6,) * 3)
        L = grid.lengths[0]
        cfg = SCFConfig(nscf=1, ncg=1, seed=3)
        return [
            SCFTask(
                grid=grid,
                positions=np.array([[L / 2 + 0.1 * k, L / 2, L / 2]]),
                species=[get_species("H")],
                norb=2,
                config=cfg,
            )
            for k in range(3)
        ]

    def test_batch_backends_agree(self):
        ref = scf_solve_batch(self._tasks(), executor=None)
        with ThreadBackend(workers=2) as tex:
            thr = scf_solve_batch(self._tasks(), executor=tex)
        with ProcessBackend(workers=2) as pex:
            prc = scf_solve_batch(self._tasks(), executor=pex)
        for r, t, p in zip(ref, thr, prc):
            assert np.array_equal(r.eigenvalues, t.eigenvalues)
            assert np.array_equal(r.rho, t.rho)
            assert r.history == t.history
            np.testing.assert_allclose(
                p.eigenvalues, r.eigenvalues, rtol=0.0, atol=1e-12
            )
            np.testing.assert_allclose(p.rho, r.rho, rtol=0.0, atol=1e-12)


class TestPhysicsInvariance:
    """Worker count, chunking and backend choice never change physics."""

    @settings(max_examples=4, deadline=None)
    @given(workers=st.integers(min_value=1, max_value=4))
    def test_thread_worker_count_invariant(self, workers):
        ref, *_ = _distributed_solve(SerialBackend(seed=5))
        with ThreadBackend(workers=workers, seed=5) as ex:
            got, *_ = _distributed_solve(ex)
        assert np.array_equal(ref.rho_global, got.rho_global)
        assert ref.energy_history == got.energy_history

    @settings(max_examples=4, deadline=None)
    @given(nranks=st.integers(min_value=1, max_value=4))
    def test_rank_count_invariant_under_thread_backend(self, nranks):
        """Domain-to-rank placement never changes the physics."""
        ref, *_ = _distributed_solve(SerialBackend(seed=5), nranks=1)
        with ThreadBackend(workers=2, seed=5) as ex:
            got, *_ = _distributed_solve(ex, nranks=nranks)
        assert np.array_equal(ref.rho_global, got.rho_global)

    def test_process_chunking_invariant(self):
        """Chunk size changes scheduling, never results (spot check)."""
        ref, *_ = _distributed_solve(SerialBackend(seed=5))
        for chunk in (2, 4):
            with ProcessBackend(workers=2, seed=5, chunk_size=chunk) as ex:
                got, *_ = _distributed_solve(ex)
            np.testing.assert_allclose(
                got.rho_global, ref.rho_global, rtol=0.0, atol=1e-12
            )
