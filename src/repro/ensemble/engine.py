"""The trajectory-ensemble engine: batched swarms over a DomainExecutor.

The engine splits an ``ntraj`` ensemble into contiguous batches (the
``ensemble.swarm`` tunable's ``batch_size``), runs each batch as one
picklable executor task -- a full swarm sweep over the classical path --
and reassembles the per-trajectory traces *in trajectory order*, so the
resulting stacked arrays (and every statistic computed from them) are
identical for any batch size, backend or worker count.

:class:`EnsembleRun` is the supervisable face of the engine: one batch
*round* (up to ``round_size`` batches through the executor) is one
"MD step" to the PR-1/PR-6
:class:`~repro.resilience.supervisor.RunSupervisor`, and
``save_state``/``load_state`` persist the partial ensemble through the
hardened checkpoint writer -- a crash mid-ensemble resumes with the
completed batches intact and replays only the missing ones, bit-
identically (each batch is a pure function of ``(path, seed, batch)``).
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.ensemble.path import ClassicalPath
from repro.ensemble.stats import EnsembleStats, compute_stats
from repro.ensemble.swarm import SwarmState, step_swarm, trajectory_rng
from repro.obs import trace_span
from repro.parallel.executor import DomainExecutor, chunk_slices, make_executor
from repro.qxmd.sh_kernels import HopPolicy
from repro.resilience.checkpointing import CheckpointCorruptError

#: Version tag of the partial-ensemble checkpoint schema.
ENSEMBLE_CKPT_VERSION = 1


@dataclass
class EnsembleConfig:
    """What to run: swarm size, initial state, RNG seed, hop physics.

    ``istate=None`` starts every trajectory on the highest state of the
    path (the photoexcited carrier relaxing downward).  ``batch_size=
    None`` resolves from the active tuning profile's ``ensemble.swarm``
    tunable.  ``array_backend`` names the array-API substrate for the
    batched FSSH kernels (``None`` = NumPy); it travels to the
    workers as a plain name, so process-spawn batches use it too.
    """

    ntraj: int = 32
    istate: Optional[int] = None
    seed: int = 2024
    substeps: int = 20
    policy: HopPolicy = field(default_factory=HopPolicy)
    batch_size: Optional[int] = None
    array_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ntraj < 1:
            raise ValueError("ntraj must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive (or None)")
        if self.istate is not None and self.istate < 0:
            raise ValueError("istate must be non-negative (or None)")
        if self.array_backend is not None:
            from repro.backend import get_backend

            # Validate and canonicalize eagerly ("auto" -> "numpy"), so
            # every batch task carries a resolved name.
            self.array_backend = get_backend(self.array_backend).name


def resolve_batch_size(config: EnsembleConfig) -> int:
    """The effective batch size: explicit config or the tuning profile."""
    if config.batch_size is not None:
        return config.batch_size
    from repro.tuning.profile import get_active_profile

    return int(get_active_profile().params_for("ensemble.swarm")["batch_size"])


@dataclass(frozen=True)
class BatchResult:
    """Everything one batch task hands back (fresh arrays, picklable)."""

    lo: int
    hi: int
    populations: np.ndarray       # (nsteps, hi-lo, nstates)
    actives: np.ndarray           # (nsteps, hi-lo)
    hops: np.ndarray              # (hi-lo,)
    final_amplitudes: np.ndarray  # (hi-lo, nstates)
    final_active: np.ndarray      # (hi-lo,)
    ke_factor: np.ndarray         # (hi-lo,)


def _swarm_batch_task(args: Tuple[Any, ...]) -> BatchResult:
    """Executor task: sweep one batch of trajectories over the full path.

    ``args`` is ``(energies, nac, kinetic, dt, lo, hi, seed, istate,
    substeps, policy, array_backend)``.  Self-contained and
    placement-independent: the RNG streams come from ``(seed, trajectory
    index)`` carried in the item, never from worker state, so any
    backend, chunking or resume produces identical results.
    ``array_backend`` is a plain substrate name (or ``None``), resolved
    inside the worker.  Inputs may be read-only shared-memory views;
    they are only read, and every returned array is fresh.
    """
    (energies, nac, kinetic, dt, lo, hi, seed, istate, substeps,
     policy, array_backend) = args
    nsteps, nstates = energies.shape
    nb = hi - lo
    swarm = SwarmState.on_state(nb, nstates, istate)
    rngs = [trajectory_rng(seed, lo + t) for t in range(nb)]
    populations = np.empty((nsteps, nb, nstates), dtype=np.float64)
    actives = np.empty((nsteps, nb), dtype=np.int64)
    for s in range(nsteps):
        xi = np.array([rng.random() for rng in rngs])
        assert swarm.ke_factor is not None
        ke = kinetic[s] * swarm.ke_factor
        step_swarm(swarm, energies[s], nac[s], dt, ke, xi, policy,
                   substeps, backend=array_backend)
        populations[s] = swarm.populations
        actives[s] = swarm.active
    assert swarm.hop_counts is not None and swarm.ke_factor is not None
    return BatchResult(
        lo=lo,
        hi=hi,
        populations=populations,
        actives=actives,
        hops=swarm.hop_counts.copy(),
        final_amplitudes=swarm.amplitudes.copy(),
        final_active=swarm.active.copy(),
        ke_factor=swarm.ke_factor.copy(),
    )


@dataclass(frozen=True)
class EnsembleRoundRecord:
    """History record of one supervisable round (``.step`` contract)."""

    step: int
    batches_run: int
    batches_done: int
    batches_total: int
    hops_so_far: int


@dataclass(frozen=True)
class EnsembleResult:
    """A completed ensemble: stacked traces plus summary statistics."""

    stats: EnsembleStats
    populations: np.ndarray   # (nsteps, ntraj, nstates)
    actives: np.ndarray       # (nsteps, ntraj)
    hops: np.ndarray          # (ntraj,)
    final_amplitudes: np.ndarray
    final_active: np.ndarray
    ke_factor: np.ndarray


class EnsembleRun:
    """Supervisable, checkpointable execution of one trajectory ensemble.

    Satisfies the supervisor's
    :class:`~repro.resilience.supervisor.SupervisableRun` protocol: one
    ``md_step()`` runs up to ``round_size`` pending batches through the
    executor; ``save_state``/``load_state`` persist the partial
    ensemble (completed-batch traces + done mask) so the hardened
    checkpoint writer and ``--restart`` machinery work unchanged.
    """

    def __init__(
        self,
        path: ClassicalPath,
        config: Optional[EnsembleConfig] = None,
        backend: Optional[str] = "serial",
        workers: Optional[int] = 1,
        round_size: Optional[int] = None,
        executor: Optional[DomainExecutor] = None,
        **executor_extras: Any,
    ) -> None:
        self.path = path
        self.config = config if config is not None else EnsembleConfig()
        self.batch_size = resolve_batch_size(self.config)
        self.istate = (self.config.istate if self.config.istate is not None
                       else path.nstates - 1)
        if self.istate >= path.nstates:
            raise ValueError("istate outside the path's state range")
        self.batches = chunk_slices(self.config.ntraj, self.batch_size)
        self.round_size = (round_size if round_size is not None
                           else max(1, workers if workers is not None else 1))
        if self.round_size < 1:
            raise ValueError("round_size must be positive")
        self._executor = executor
        self._backend = backend
        self._workers = workers
        self._executor_extras = executor_extras
        ntraj, nsteps, nstates = (self.config.ntraj, path.nsteps,
                                  path.nstates)
        self.populations = np.zeros((nsteps, ntraj, nstates))
        self.actives = np.zeros((nsteps, ntraj), dtype=np.int64)
        self.hops = np.zeros(ntraj, dtype=np.int64)
        self.final_amplitudes = np.zeros((ntraj, nstates),
                                         dtype=np.complex128)
        self.final_active = np.zeros(ntraj, dtype=np.int64)
        self.ke_factor = np.ones(ntraj, dtype=np.float64)
        self.done = np.zeros(len(self.batches), dtype=bool)
        self.step_count = 0
        self.time = 0.0
        self.history: List[EnsembleRoundRecord] = []
        self.health_guard: Any = None

    # ------------------------------------------------------------------ #
    @property
    def complete(self) -> bool:
        return bool(self.done.all())

    @property
    def rounds_remaining(self) -> int:
        """Supervisable steps needed to finish the pending batches."""
        pending = int(np.count_nonzero(~self.done))
        return math.ceil(pending / self.round_size)

    def _get_executor(self) -> DomainExecutor:
        if self._executor is None:
            self._executor = make_executor(
                self._backend, workers=self._workers,
                seed=self.config.seed, **self._executor_extras,
            )
        return self._executor

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()

    def __enter__(self) -> "EnsembleRun":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _batch_item(self, index: int) -> Tuple[Any, ...]:
        lo, hi = self.batches[index]
        return (self.path.energies, self.path.nac, self.path.kinetic,
                self.path.dt, lo, hi, self.config.seed, self.istate,
                self.config.substeps, self.config.policy,
                self.config.array_backend)

    def _apply(self, index: int, res: BatchResult) -> None:
        lo, hi = res.lo, res.hi
        self.populations[:, lo:hi, :] = res.populations
        self.actives[:, lo:hi] = res.actives
        self.hops[lo:hi] = res.hops
        self.final_amplitudes[lo:hi] = res.final_amplitudes
        self.final_active[lo:hi] = res.final_active
        self.ke_factor[lo:hi] = res.ke_factor
        self.done[index] = True

    def md_step(self) -> EnsembleRoundRecord:
        """Run one round of pending batches (the supervisable unit)."""
        todo = np.nonzero(~self.done)[0][: self.round_size]
        if todo.size:
            items = [self._batch_item(int(i)) for i in todo]
            with trace_span("ensemble.round", "md",
                            round=self.step_count, batches=len(items),
                            ntraj=self.config.ntraj):
                results = self._get_executor().map(
                    _swarm_batch_task, items, label="ensemble.batches"
                )
            for i, res in zip(todo, results):
                self._apply(int(i), res)
        self.step_count += 1
        self.time = float(self.step_count)
        record = EnsembleRoundRecord(
            step=self.step_count,
            batches_run=int(todo.size),
            batches_done=int(np.count_nonzero(self.done)),
            batches_total=len(self.batches),
            hops_so_far=int(self.hops.sum()),
        )
        self.history.append(record)
        return record

    def run(self) -> EnsembleResult:
        """Run every pending round; returns the completed ensemble."""
        while not self.complete:
            self.md_step()
        return self.result()

    def result(self) -> EnsembleResult:
        """Assemble the final :class:`EnsembleResult`; all batches must
        be done (raises ``RuntimeError`` on a partial ensemble)."""
        if not self.complete:
            raise RuntimeError(
                f"ensemble incomplete: {int(np.count_nonzero(self.done))}"
                f"/{len(self.batches)} batches done"
            )
        return EnsembleResult(
            stats=compute_stats(self.populations, self.actives),
            populations=self.populations,
            actives=self.actives,
            hops=self.hops,
            final_amplitudes=self.final_amplitudes,
            final_active=self.final_active,
            ke_factor=self.ke_factor,
        )

    # ------------------------------------------------------------------ #
    def _fingerprint(self) -> str:
        """Config digest a checkpoint must match to be resumable here.

        The payload is hashed through the shared
        :func:`repro.artifacts.fingerprint.config_hash` helper -- the
        same canonical-JSON digest that keys tuning winners and serve
        artifacts -- so "which run wrote this checkpoint" and "which
        config produced this artifact" are answered by one scheme.
        """
        from repro.artifacts.fingerprint import config_hash

        p = self.config.policy
        return config_hash({
            "version": ENSEMBLE_CKPT_VERSION,
            "ntraj": self.config.ntraj,
            "seed": self.config.seed,
            "substeps": self.config.substeps,
            "istate": self.istate,
            "batch_size": self.batch_size,
            "nsteps": self.path.nsteps,
            "nstates": self.path.nstates,
            "dt": self.path.dt,
            "policy": [p.hop_rescale, p.hop_reject,
                       p.dec_correction or "", p.edc_parameter],
            # Cross-substrate trajectories agree only to ~1e-10, so a
            # resume on a different substrate must be rejected outright.
            "array_backend": self.config.array_backend or "numpy",
        })

    def save_state(self, path: Union[str, pathlib.Path]) -> None:
        """Archive the partial ensemble (checkpoint-writer callback)."""
        meta = {"fingerprint": self._fingerprint()}
        meta["step_count"] = self.step_count
        np.savez(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            populations=self.populations,
            actives=self.actives,
            hops=self.hops,
            final_amplitudes=self.final_amplitudes,
            final_active=self.final_active,
            ke_factor=self.ke_factor,
            done=self.done,
        )

    def load_state(self, path: Union[str, pathlib.Path]) -> None:
        """Restore a partial ensemble written by :meth:`save_state`.

        Two-phase: every array is read and validated against this run's
        configuration fingerprint before any state is touched.  A
        fingerprint mismatch raises
        :class:`~repro.resilience.checkpointing.CheckpointCorruptError`
        so the restore machinery falls back a generation rather than
        splicing an incompatible ensemble into this run.
        """
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
            loaded = {
                key: archive[key]
                for key in ("populations", "actives", "hops",
                            "final_amplitudes", "final_active",
                            "ke_factor", "done")
            }
        step_count = int(meta.pop("step_count", -1))
        expected = self._fingerprint()
        if meta.get("fingerprint") != expected:
            raise CheckpointCorruptError(
                f"ensemble checkpoint fingerprint mismatch: "
                f"{meta.get('fingerprint')} != {expected}"
            )
        if loaded["populations"].shape != self.populations.shape or \
                loaded["done"].shape != self.done.shape:
            raise CheckpointCorruptError(
                "ensemble checkpoint array shapes do not match the run"
            )
        self.populations = loaded["populations"]
        self.actives = loaded["actives"]
        self.hops = loaded["hops"]
        self.final_amplitudes = loaded["final_amplitudes"]
        self.final_active = loaded["final_active"]
        self.ke_factor = loaded["ke_factor"]
        self.done = loaded["done"].astype(bool)
        self.step_count = step_count
        self.time = float(step_count)


def run_ensemble(
    path: ClassicalPath,
    config: Optional[EnsembleConfig] = None,
    backend: str = "serial",
    workers: int = 1,
    round_size: Optional[int] = None,
    **executor_extras: Any,
) -> EnsembleResult:
    """Convenience wrapper: run a full ensemble and return its result."""
    with EnsembleRun(path, config, backend=backend, workers=workers,
                     round_size=round_size, **executor_extras) as run:
        return run.run()
