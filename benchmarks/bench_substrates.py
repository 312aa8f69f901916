"""Substrate micro-benchmarks: the solvers under the headline kernels.

Not a paper table, but what a downstream user of this library profiles
first: the O(N) multigrid Poisson solve, the CG eigensolver, one full SCF
iteration, an FDTD step, the FSSH electronic step, and the effective-
Hamiltonian relaxation.  The O(N) property of the multigrid is asserted
directly (time per point roughly flat across sizes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grids import Grid3D
from repro.lfd import WaveFunctionSet
from repro.maxwell import VectorPotentialFDTD
from repro.materials import EffectiveHamiltonian, flux_closure_modes
from repro.multigrid import PoissonMultigrid
from repro.pseudo import get_species
from repro.qxmd import FSSH, KSHamiltonian, SurfaceHoppingState, cg_eigensolve
from repro.qxmd.scf import SCFConfig, scf_solve


@pytest.mark.parametrize("n", [16, 32])
def test_multigrid_poisson(benchmark, n):
    grid = Grid3D.cubic(n, 0.5)
    rng = np.random.default_rng(0)
    rho = rng.standard_normal(grid.shape)
    rho -= rho.mean()
    mg = PoissonMultigrid(grid)

    def solve():
        v, stats = mg.solve(rho, tol=1e-8)
        assert stats.converged
        return v

    benchmark(solve)
    benchmark.extra_info["points"] = grid.npoints


def test_multigrid_is_linear_scaling(benchmark):
    """Time per mesh point stays within ~3x from 16^3 to 32^3."""
    import time

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    per_point = []
    for n in (16, 32):
        grid = Grid3D.cubic(n, 0.5)
        rng = np.random.default_rng(0)
        rho = rng.standard_normal(grid.shape)
        rho -= rho.mean()
        mg = PoissonMultigrid(grid)
        mg.solve(rho, tol=1e-8)  # warm up
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            mg.solve(rho, tol=1e-8)
            best = min(best, time.perf_counter() - t0)
        per_point.append(best / grid.npoints)
    assert per_point[1] < 3.0 * per_point[0]


def test_cg_eigensolver(benchmark):
    grid = Grid3D.cubic(12, 0.5)
    rng = np.random.default_rng(1)
    vloc = rng.standard_normal(grid.shape)
    ham = KSHamiltonian(grid, vloc)

    def solve():
        wf = WaveFunctionSet.random(grid, 6, np.random.default_rng(2))
        return cg_eigensolve(ham, wf, ncg=3)

    evals = benchmark(solve)
    assert np.all(np.diff(evals) >= -1e-9)


def test_scf_iteration(benchmark):
    grid = Grid3D.cubic(12, 0.6)
    L = grid.lengths[0]
    pos = np.array([[L / 2 - 0.7, L / 2, L / 2], [L / 2 + 0.7, L / 2, L / 2]])
    sp = [get_species("H"), get_species("H")]

    def solve():
        return scf_solve(grid, pos, sp, norb=3,
                         config=SCFConfig(nscf=1, ncg=3))

    res = benchmark(solve)
    assert res.occupations.sum() == pytest.approx(2.0)


def test_fdtd_step(benchmark):
    solver = VectorPotentialFDTD(nz=4096, dz=10.0, dt=0.05)
    solver.a[:] = np.sin(np.linspace(0, 20 * np.pi, 4096))
    solver.a_prev[:] = solver.a
    benchmark(solver.step)


def test_fssh_step(benchmark):
    rng = np.random.default_rng(3)
    fssh = FSSH(rng, decoherence_c=0.1)
    n = 32
    energies = np.sort(rng.standard_normal(n))
    m = 0.05 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    nac = 0.5 * (m - m.conj().T)

    def step():
        state = SurfaceHoppingState.on_state(n, 5)
        return fssh.step(state, energies, nac, dt=1.0, kinetic_energy=5.0)

    benchmark(step)


def test_effective_ham_relax(benchmark):
    ham = EffectiveHamiltonian((16, 2, 16))
    fc = flux_closure_modes((16, 2, 16), ham.params.p_min)

    def relax():
        modes, e = ham.relax(fc, nsteps=50)
        return e

    e = benchmark(relax)
    assert np.isfinite(e)


def test_distributed_dc_solver(benchmark):
    """DC solve over 4 simulated ranks (result checked vs one rank)."""
    from repro.grids import DomainDecomposition
    from repro.qxmd import GlobalDCSolver

    grid = Grid3D((16, 16, 16), (0.6, 0.6, 0.6))
    dec = DomainDecomposition(grid, (2, 2, 1), buffer_width=3)
    pos = np.array(
        [[2.0, 2.0, 4.8], [7.0, 2.0, 4.8], [2.0, 7.0, 4.8], [7.0, 7.0, 4.8]]
    )
    sp = [get_species("H")] * 4

    def run():
        return GlobalDCSolver(
            grid, dec, pos, sp, nranks=4, nscf=2, ncg=2
        ).solve()

    dist = benchmark.pedantic(run, rounds=1, iterations=1)
    serial = GlobalDCSolver(grid, dec, pos, sp, norb_extra=2,
                            nscf=2, ncg=2).solve()
    assert np.array_equal(dist.rho_global, serial.rho_global)


# --------------------------------------------------------------------- #
# executor backend scaling (BENCH_backend_scaling.json)
# --------------------------------------------------------------------- #
#: Rank counts of the modeled Fig. 3 strong-scaling excerpt.  P = 1 vs
#: P = 4 is the worker count the process/thread backends target on one
#: node; the modeled speedup is deterministic roofline arithmetic and
#: carries the regression gate (modeled rtol pins it bitwise-stable).
BACKEND_SCALING_P = (1, 2, 4)
BACKEND_SCALING_NATOMS = 5120.0

#: The modeled P=4 speedup over P=1 must clear this floor (paper Fig. 3
#: shows near-linear scaling at small P; 1.3x is a deliberately loose
#: floor so calibration tweaks don't flap the gate).
MIN_MODELED_SPEEDUP = 1.3


def _measure_backend(name: str, workers: int):
    """Median/MAD wall time of a small 4-rank DC solve on one backend.

    One warm-up solve (imports, caches, process-worker spawn) precedes
    three timed repeats, so no backend is charged the cold start of
    whichever one happens to run first.
    """
    from repro.grids import DomainDecomposition
    from repro.parallel.executor import make_executor
    from repro.qxmd import GlobalDCSolver
    from repro.tuning.measure import measure_callable

    grid = Grid3D((12, 12, 12), (0.6, 0.6, 0.6))
    dec = DomainDecomposition(grid, (2, 2, 1), buffer_width=2)
    L = grid.lengths[0]
    pos = np.array(
        [[L / 4, L / 4, L / 2], [3 * L / 4, L / 4, L / 2],
         [L / 4, 3 * L / 4, L / 2], [3 * L / 4, 3 * L / 4, L / 2]]
    )
    sp = [get_species("H")] * 4
    with make_executor(name, workers=workers, seed=5) as ex:
        solver = GlobalDCSolver(
            grid, dec, pos, sp, norb_extra=1, nscf=2, ncg=1,
            seed=5, executor=ex, nranks=4,
        )
        timing, result = measure_callable(solver.solve, warmup=1, repeats=3,
                                          label=f"dc_solve.{name}")
    assert np.isfinite(result.energy_history[-1])
    return timing, result


def emit_backend_scaling():
    """Build and persist the backend-scaling telemetry document.

    Modeled entries come from the calibrated Fig. 3 strong-scaling model
    (deterministic, regression-gated at 1e-6 rtol); measured entries are
    median wall times (with MAD) of one small 4-rank DC solve per backend
    at the documented reduced scale (gated only as a ratio, since worker
    processes on a single-core runner are slower than serial).
    """
    import os

    from benchmarks.bench_common import write_bench_json
    from repro.parallel import strong_scaling_study
    from repro.parallel.scaling import calibrated_model

    points = strong_scaling_study(
        calibrated_model(), BACKEND_SCALING_NATOMS, BACKEND_SCALING_P
    )
    by_p = {p.nranks: p for p in points}
    kernels = {
        f"dcmesh_step_p{p}_modeled": {
            "time_s": by_p[p].step_time,
            "kind": "modeled",
            "nranks": p,
        }
        for p in BACKEND_SCALING_P
    }
    measured = {}
    for name, workers in (("serial", 1), ("thread", 4), ("process", 4)):
        timing, _ = _measure_backend(name, workers)
        measured[name] = timing.median_s
        kernels[f"distributed_solve_{name}"] = {
            "time_s": timing.median_s,
            "mad_s": timing.mad_s,
            "repeats": timing.repeats,
            "kind": "measured",
            "workers": workers,
        }
    modeled_speedup = by_p[1].step_time / by_p[4].step_time
    extra = {
        "modeled_speedup_p4_over_p1": modeled_speedup,
        "measured_speedup_thread": measured["serial"] / measured["thread"],
        "measured_speedup_process": measured["serial"] / measured["process"],
        "cpu_count": os.cpu_count(),
    }
    path = write_bench_json(
        "backend_scaling",
        kernels,
        workload={
            "natoms_modeled": BACKEND_SCALING_NATOMS,
            "p_list": list(BACKEND_SCALING_P),
            "measured_grid": [12, 12, 12],
            "measured_natoms": 4,
        },
        extra=extra,
    )
    return path, modeled_speedup, extra


def test_backend_scaling_telemetry():
    """Emit BENCH_backend_scaling.json; modeled P=4 speedup > 1.3x.

    The measured per-backend times only assert a speedup when the host
    actually has cores to scale onto -- single-core CI runners pay pure
    IPC overhead for worker processes and that is expected, documented
    behaviour, not a regression.
    """
    import os

    path, modeled_speedup, extra = emit_backend_scaling()
    assert path.exists()
    assert modeled_speedup > MIN_MODELED_SPEEDUP
    if (os.cpu_count() or 1) >= 4:
        assert extra["measured_speedup_process"] > 1.0


if __name__ == "__main__":
    out, speedup, info = emit_backend_scaling()
    print(f"wrote {out} (modeled P=4 speedup {speedup:.2f}x, "
          f"cpu_count={info['cpu_count']})")
