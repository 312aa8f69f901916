"""Trajectory-ensemble throughput benchmark: batched swarms vs the loop.

The ensemble engine exists to make FSSH swarms cheap: stepping ``ntraj``
trajectories as stacked ``(ntraj, nstates)`` arrays amortizes the RK4
amplitude integration and hop bookkeeping that a Python loop of
standalone :class:`~repro.qxmd.surface_hopping.FSSH` runs pays per
trajectory.  This bench holds that claim to a number:

- ``ensemble_loop_reference``: a plain loop of
  :func:`~repro.ensemble.swarm.run_reference_trajectory` (the exact-tier
  ground truth of the equivalence harness);
- ``ensemble_swarm_serial/thread/process``: the same ensemble through
  :func:`~repro.ensemble.run_ensemble` on each executor backend.

The batched serial engine must beat the loop by at least
``MIN_BATCH_SPEEDUP`` (1.3x) -- asserted in-bench, so the committed
``BENCH_ensemble.json`` baseline gate only needs to catch
order-of-magnitude drift.  All variants produce bit-identical
trajectories (the equivalence suite proves it), so this is a pure
speed comparison.
"""

from __future__ import annotations

import time

#: Ensemble workload: big enough that batching wins clearly, small
#: enough for the CI bench-smoke window.
NTRAJ = 64
NSTEPS = 40
NSTATES = 4
SUBSTEPS = 20
BATCH_SIZE = 32

#: Best-of repeats for every timed section (process backend included:
#: the executor is reused, so spawn cost is paid once outside timing).
REPEATS = 3

#: The batched serial engine must beat the trajectory loop by this much.
MIN_BATCH_SPEEDUP = 1.3


def _workload():
    from repro.ensemble import EnsembleConfig, model_path

    path = model_path(nsteps=NSTEPS, nstates=NSTATES, dt=1.0, seed=11,
                      coupling=0.12)
    config = EnsembleConfig(ntraj=NTRAJ, seed=99, batch_size=BATCH_SIZE)
    return path, config


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def emit_ensemble():
    """Time the loop reference and every backend; persist telemetry."""
    from benchmarks.bench_common import write_bench_json
    from repro.ensemble import EnsembleRun, run_reference_trajectory

    path, config = _workload()
    istate = path.nstates - 1

    def loop_reference():
        for i in range(config.ntraj):
            run_reference_trajectory(path, i, config.seed, istate,
                                     config.substeps, config.policy)

    loop_reference()  # warm-up (imports, JIT-free but cache-warm)
    loop_s = _best_of(loop_reference)

    kernels = {
        "ensemble_loop_reference": {
            "time_s": loop_s, "kind": "measured", "calls": config.ntraj,
        },
    }
    measured = {}
    for backend, workers in (("serial", 1), ("thread", 2), ("process", 2)):
        with EnsembleRun.from_config(path, config, backend=backend,
                                     workers=workers) as run:
            run.md_step()  # warm-up round also spawns process workers

            def sweep(run=run):
                run.done[:] = False
                while not run.complete:
                    run.md_step()

            wall = _best_of(sweep)
        measured[backend] = wall
        kernels[f"ensemble_swarm_{backend}"] = {
            "time_s": wall, "kind": "measured", "workers": workers,
        }

    speedup = loop_s / measured["serial"]
    extra = {
        "batch_speedup_serial_over_loop": speedup,
        "min_batch_speedup": MIN_BATCH_SPEEDUP,
        "traj_per_s_loop": NTRAJ / loop_s,
        **{f"traj_per_s_{b}": NTRAJ / t for b, t in measured.items()},
    }
    path_out = write_bench_json(
        "ensemble",
        kernels,
        workload={
            "ntraj": NTRAJ, "nsteps": NSTEPS, "nstates": NSTATES,
            "substeps": SUBSTEPS, "batch_size": BATCH_SIZE,
        },
        extra=extra,
    )
    return path_out, speedup, extra


def test_ensemble_telemetry():
    """Emit BENCH_ensemble.json; batching beats the loop by >= 1.3x."""
    path, speedup, extra = emit_ensemble()
    assert path.exists()
    assert speedup >= MIN_BATCH_SPEEDUP, extra


if __name__ == "__main__":
    out, speedup, info = emit_ensemble()
    print(f"wrote {out}")
    print(f"batched-vs-loop speedup: {speedup:.2f}x "
          f"(gate {MIN_BATCH_SPEEDUP}x)")
    for key, val in sorted(info.items()):
        if key.startswith("traj_per_s"):
            print(f"  {key}: {val:.1f}")
