"""The MD workloads: ``md_lfd`` and ``md_scf``.

Both run the ``repro-mesh run`` system (two O atoms, spacing 0.6,
domains (2, 1, 1), buffer 3, laser e0 0.02 / omega 0.3, dt_md 2.0) on the
serial executor, built by :func:`repro.serve.workloads.run_system` so the
physics is exactly the CLI's.  A run is a sequence of short episodes:
build a simulation (one ``setup_s`` sample), then up to
:data:`EPISODE_STEPS` MD steps (``md_step_s`` samples), each checked
against the stored reference for that system seed and step.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: MD steps per episode.  Short episodes keep every step on a stored
#: reference and give ``setup_s`` several samples per run.
EPISODE_STEPS = 4

#: System seeds (``repro-mesh run --seed``) an episode draws from; the
#: reference file holds every step of every one of them.
SYSTEM_SEEDS = tuple(range(11, 19))

#: The untimed warm-up system uses a seed outside :data:`SYSTEM_SEEDS`.
WARMUP_SEED = 7

#: Stated tolerance of the output check (Ha for band energy, bohr for
#: positions).  The program is deterministic, so on one machine the
#: results repeat bitwise; the slack absorbs BLAS rounding differences.
BAND_TOL = 1e-6
POS_TOL = 1e-6

REFERENCE = pathlib.Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class MDCase:
    """One MD workload's system parameters."""

    grid: int
    n_qd: int
    nscf: int
    ncg: int
    excite: bool


CASES = {
    # Many QD sub-steps per MD step: LFD kernels dominate.
    "md_lfd": MDCase(grid=16, n_qd=100, nscf=2, ncg=3, excite=False),
    # The paper's 3 SCF x 3 CG budget on a larger grid, with an excited
    # carrier so surface hopping runs: the QXMD side dominates.
    "md_scf": MDCase(grid=24, n_qd=5, nscf=3, ncg=3, excite=True),
}


def build(case: MDCase, seed: int) -> Any:
    """Construct the simulation (includes the cold initial SCF)."""
    from repro import DCMESHSimulation, VirtualGPU
    from repro.parallel.backends.serial import SerialBackend
    from repro.serve.workloads import run_system

    grid, positions, species, laser, config = run_system({
        "grid": case.grid, "spacing": 0.6, "species": "O", "dt_md": 2.0,
        "n_qd": case.n_qd, "nscf": case.nscf, "ncg": case.ncg,
        "e0": 0.02, "omega": 0.3, "seed": seed, "array_backend": None,
    })
    sim = DCMESHSimulation(
        grid, (2, 1, 1), positions, species, laser=laser, config=config,
        device=VirtualGPU(), buffer_width=3,
        executor=SerialBackend(seed=seed),
    )
    if case.excite:
        sim.excite_carrier(0)
    return sim


def step_summary(sim: Any, record: Any) -> Dict[str, Any]:
    """What the output check and the bitwise self-test compare."""
    return {
        "band_energy": float(record.band_energy),
        "temperature": float(record.temperature),
        "excited_population": float(record.excited_population),
        "scissor_shifts": [float(x) for x in record.scissor_shifts],
        "vector_potential": [float(x) for x in record.vector_potential],
        "positions": sim.md_state.positions.tolist(),
    }


def check_step(summary: Dict[str, Any], ref: Optional[Dict[str, Any]]) -> str:
    """Empty string when the step passes, else the reason it fails."""
    values = [summary["band_energy"], summary["temperature"],
              summary["excited_population"], *summary["scissor_shifts"],
              *summary["vector_potential"]]
    values += [x for row in summary["positions"] for x in row]
    if not all(math.isfinite(v) for v in values):
        return "non-finite step record"
    if ref is None:
        return "no stored reference for this step"
    if abs(summary["band_energy"] - ref["band_energy"]) > BAND_TOL:
        return (f"band energy {summary['band_energy']!r} != reference "
                f"{ref['band_energy']!r}")
    pos = np.asarray(summary["positions"])
    if np.max(np.abs(pos - np.asarray(ref["positions"]))) > POS_TOL:
        return "final positions differ from the reference"
    return ""


def load_reference(workload: str) -> Dict[str, List[Dict[str, Any]]]:
    """Per-system-seed step references of one workload."""
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def write_reference() -> None:
    """Regenerate :data:`REFERENCE` from the current program."""
    out: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    for name, case in CASES.items():
        out[name] = {}
        for seed in SYSTEM_SEEDS:
            sim = build(case, seed)
            out[name][str(seed)] = [
                {k: v for k, v in step_summary(sim, sim.md_step()).items()
                 if k in ("band_energy", "positions")}
                for _ in range(EPISODE_STEPS)
            ]
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------- #
class Outcome:
    """Samples and failures of one MD run."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.step_s: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []

    def run_episode(self, case: MDCase, seed: int, refs: List[Dict[str, Any]],
                    deadline: float) -> List[Dict[str, Any]]:
        """Build one system and step it; returns the step summaries."""
        t0 = time.perf_counter()
        sim = build(case, seed)
        self.setup_s.append(time.perf_counter() - t0)
        summaries = []
        for k in range(EPISODE_STEPS):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                record = sim.md_step()
            except Exception as exc:  # an operation that raises has failed
                self.step_s.append(time.perf_counter() - t0)
                self.failures.append(f"seed {seed} step {k + 1}: {exc!r}")
                break
            self.step_s.append(time.perf_counter() - t0)
            summary = step_summary(sim, record)
            summaries.append(summary)
            reason = check_step(summary, refs[k] if k < len(refs) else None)
            if reason:
                self.failures.append(f"seed {seed} step {k + 1}: {reason}")
            if time.perf_counter() >= deadline:
                break
        return summaries


def warm_up(case: MDCase) -> None:
    """One untimed construction and step, so library warm-up is excluded."""
    build(case, WARMUP_SEED).md_step()


def run(workload: str, seed: int, seconds: float) -> Outcome:
    """The untraced run: episodes until ``seconds`` have elapsed."""
    case = CASES[workload]
    refs = load_reference(workload)
    rng = np.random.default_rng(seed)
    warm_up(case)
    out = Outcome()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sys_seed = int(rng.choice(SYSTEM_SEEDS))
        out.run_episode(case, sys_seed, refs[str(sys_seed)], deadline)
    return out


def run_traced(workload: str, seed: int, seconds: float,
               clock: Any) -> Tuple[Outcome, Dict[str, Any]]:
    """The traced run: each episode runs twice on the same system seed,
    untraced then with the layer wrappers and the obs tracer installed.

    The pair gives the wrapper self-test (the traced steps must equal
    the untraced ones bitwise) and ``trace.overhead_frac`` from the same
    run.  Layer totals cover the traced MD steps only.
    """
    from repro.obs import Tracer, tracing

    from layers import install

    case = CASES[workload]
    refs = load_reference(workload)
    rng = np.random.default_rng(seed)
    warm_up(case)
    plain = Outcome()
    traced_s: List[float] = []
    tracer = Tracer()
    mismatches = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sys_seed = int(rng.choice(SYSTEM_SEEDS))
        ref = refs[str(sys_seed)]
        want = plain.run_episode(case, sys_seed, ref, deadline)
        sim = build(case, sys_seed)
        install(clock)
        try:
            with tracing(tracer):
                got = []
                for _ in want:
                    plain.attempted += 1
                    t0 = time.perf_counter()
                    record = sim.md_step()
                    traced_s.append(time.perf_counter() - t0)
                    got.append(step_summary(sim, record))
        finally:
            clock.uninstall()
        if got != want:
            mismatches += 1
            plain.failures.append(
                f"seed {sys_seed}: traced steps differ from untraced ones")
    return plain, {
        "traced_steps": len(traced_s),
        "median_step_s": statistics.median(plain.step_s),
        "median_traced_step_s": statistics.median(traced_s),
        "bitwise_mismatches": mismatches,
        "obs_records": tracer.records,
    }
