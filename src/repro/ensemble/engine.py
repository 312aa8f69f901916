"""The trajectory-ensemble engine: batched swarms over a DomainExecutor.

An :class:`EnsembleRun` executes one or more *members* -- independent
``(ntraj, istate, seed)`` ensembles over one shared classical path --
stacked on a single trajectory axis.  :func:`pack_segments` cuts the
stack into tasks of ``batch_size`` rows (the ``ensemble.swarm``
tunable); each task is one picklable executor task -- a full swarm
sweep over the path -- and its traces land back *in stack order*.  The
swarm kernels are batch-size invariant and trajectory ``i`` of a member
seeded ``s`` always draws from ``trajectory_rng(s, i)``, so every
member's traces (and every statistic computed from them) are identical
for any batch size, backend, worker count or set of co-members.  A
single job is the one-member case (:meth:`EnsembleRun.from_config`);
the serving daemon coalesces many jobs into one run.

:class:`EnsembleRun` is supervisable: one task *round* (up to
``round_size`` tasks through the executor) is one "MD step" to the
:class:`~repro.resilience.supervisor.RunSupervisor`, and
``checkpoint_state``/``restore_state`` persist the partial run through
the hardened checkpoint writer -- a crash mid-ensemble resumes with the
completed tasks intact and replays only the missing ones, bit-
identically (each task is a pure function of its segments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.artifacts.fingerprint import config_hash
from repro.ensemble.path import ClassicalPath
from repro.ensemble.stats import EnsembleStats, compute_stats
from repro.ensemble.swarm import SwarmState, step_swarm, trajectory_rng
from repro.obs import trace_span
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.executor import DomainExecutor, make_executor
from repro.qxmd.sh_kernels import HopPolicy
from repro.resilience.checkpointing import CheckpointCorruptError

#: Version tag of the partial-ensemble checkpoint schema; it is part of
#: the fingerprint, so checkpoints of any other version do not resume.
ENSEMBLE_CKPT_VERSION = 3


@dataclass
class EnsembleConfig:
    """What to run: swarm size, initial state, RNG seed, hop physics.

    ``istate=None`` starts every trajectory on the highest state of the
    path (the photoexcited carrier relaxing downward).  ``batch_size=
    None`` resolves from the active tuning profile's ``ensemble.swarm``
    tunable.
    """

    ntraj: int = 32
    istate: Optional[int] = None
    seed: int = 2024
    substeps: int = 20
    policy: HopPolicy = field(default_factory=HopPolicy)
    batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ntraj < 1:
            raise ValueError("ntraj must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive (or None)")
        if self.istate is not None and self.istate < 0:
            raise ValueError("istate must be non-negative (or None)")


def resolve_batch_size(batch_size: Optional[int]) -> int:
    """The effective batch size: explicit value or the tuning profile."""
    if batch_size is not None:
        return int(batch_size)
    from repro.tuning.profile import get_active_profile

    return int(get_active_profile().params_for("ensemble.swarm")["batch_size"])


@dataclass(frozen=True)
class EnsembleMember:
    """One job's slice of a run: its width, initial state and seed."""

    ntraj: int
    istate: int
    seed: int

    def __post_init__(self) -> None:
        if self.ntraj < 1:
            raise ValueError("ntraj must be positive")
        if self.istate < 0:
            raise ValueError("istate must be non-negative")


@dataclass(frozen=True)
class Segment:
    """A contiguous run of one member's trajectories inside a task.

    ``lo``/``hi`` index the run's stacked (global) trajectory axis;
    ``local_lo`` is the member-local index of row ``lo``, which seeds
    the per-trajectory RNG stream -- the stream depends on the
    trajectory's identity *within its member*, never on its placement
    in the stack.
    """

    seed: int
    istate: int
    lo: int
    hi: int
    local_lo: int


def pack_segments(
    members: Sequence[EnsembleMember], batch_size: int
) -> List[Tuple[Segment, ...]]:
    """Greedily pack every member's trajectories into stacked tasks.

    Members are walked in order; each task accumulates segments until it
    holds ``batch_size`` trajectory rows, so small members share tasks
    while a member wider than ``batch_size`` splits across several.  The
    tasks tile the stack contiguously, and for one member they are
    exactly ``chunk_slices(ntraj, batch_size)``.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    tasks: List[Tuple[Segment, ...]] = []
    current: List[Segment] = []
    room = batch_size
    offset = 0
    for member in members:
        local = 0
        while local < member.ntraj:
            width = min(room, member.ntraj - local)
            current.append(Segment(
                seed=member.seed,
                istate=member.istate,
                lo=offset + local,
                hi=offset + local + width,
                local_lo=local,
            ))
            local += width
            room -= width
            if room == 0:
                tasks.append(tuple(current))
                current = []
                room = batch_size
        offset += member.ntraj
    if current:
        tasks.append(tuple(current))
    return tasks


@dataclass(frozen=True)
class BatchResult:
    """Everything one task hands back (fresh arrays, picklable)."""

    lo: int
    hi: int
    populations: np.ndarray       # (nsteps, hi-lo, nstates)
    actives: np.ndarray           # (nsteps, hi-lo)
    hops: np.ndarray              # (hi-lo,)
    final_amplitudes: np.ndarray  # (hi-lo, nstates)
    final_active: np.ndarray      # (hi-lo,)
    ke_factor: np.ndarray         # (hi-lo,)


def _swarm_task(args: Tuple[Any, ...]) -> BatchResult:
    """Executor task: sweep one stack of segments over the full path.

    ``args`` is ``(energies, nac, kinetic, dt, segments, substeps,
    policy)`` with ``segments`` a contiguous tuple of
    :class:`Segment`.  Self-contained and placement-independent: the RNG
    streams come from ``(member seed, member-local index)`` carried in
    the segments, never from worker state, and rows of different members
    share the stacked kernel calls while staying numerically
    independent.  Inputs may be read-only
    shared-memory views; they are only read, and every returned array
    is fresh.
    """
    energies, nac, kinetic, dt, segments, substeps, policy = args
    nsteps, nstates = energies.shape
    lo, hi = segments[0].lo, segments[-1].hi
    amps = np.zeros((hi - lo, nstates), dtype=np.complex128)
    active = np.empty(hi - lo, dtype=np.int64)
    rngs = []
    for seg in segments:
        rows = slice(seg.lo - lo, seg.hi - lo)
        amps[rows, seg.istate] = 1.0
        active[rows] = seg.istate
        rngs.extend(trajectory_rng(seg.seed, seg.local_lo + t)
                    for t in range(seg.hi - seg.lo))
    swarm = SwarmState(amplitudes=amps, active=active)
    populations = np.empty((nsteps, hi - lo, nstates), dtype=np.float64)
    actives = np.empty((nsteps, hi - lo), dtype=np.int64)
    for s in range(nsteps):
        xi = np.array([rng.random() for rng in rngs])
        assert swarm.ke_factor is not None
        ke = kinetic[s] * swarm.ke_factor
        step_swarm(swarm, energies[s], nac[s], dt, ke, xi, policy,
                   substeps)
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
    """One member's completed ensemble: traces plus summary statistics."""

    stats: EnsembleStats
    populations: np.ndarray   # (nsteps, ntraj, nstates)
    actives: np.ndarray       # (nsteps, ntraj)
    hops: np.ndarray          # (ntraj,)
    final_amplitudes: np.ndarray
    final_active: np.ndarray
    ke_factor: np.ndarray


class EnsembleRun:
    """Supervisable, checkpointable execution of stacked ensembles.

    Satisfies the supervisor's
    :class:`~repro.resilience.supervisor.SupervisableRun` protocol: one
    ``md_step()`` runs up to ``round_size`` pending tasks through the
    executor; ``checkpoint_state``/``restore_state`` persist the partial run
    (completed-task traces + done mask) so the hardened checkpoint
    writer and ``--restart`` machinery work unchanged.  ``executor=None``
    runs the tasks on a serial backend; :meth:`close` shuts the executor
    down.
    """

    def __init__(
        self,
        path: ClassicalPath,
        members: Sequence[EnsembleMember],
        policy: HopPolicy,
        substeps: int = 20,
        batch_size: Optional[int] = None,
        round_size: int = 1,
        executor: Optional[DomainExecutor] = None,
    ) -> None:
        if not members:
            raise ValueError("an ensemble run needs at least one member")
        if any(m.istate >= path.nstates for m in members):
            raise ValueError("istate outside the path's state range")
        if round_size < 1:
            raise ValueError("round_size must be positive")
        self.path = path
        self.members = tuple(members)
        self.policy = policy
        self.substeps = int(substeps)
        self.batch_size = resolve_batch_size(batch_size)
        self.batches = pack_segments(self.members, self.batch_size)
        self.round_size = int(round_size)
        self._executor = executor if executor is not None else SerialBackend()
        self.ntraj = sum(m.ntraj for m in self.members)
        nsteps, nstates = path.nsteps, path.nstates
        self.populations = np.zeros((nsteps, self.ntraj, nstates))
        self.actives = np.zeros((nsteps, self.ntraj), dtype=np.int64)
        self.hops = np.zeros(self.ntraj, dtype=np.int64)
        self.final_amplitudes = np.zeros((self.ntraj, nstates),
                                         dtype=np.complex128)
        self.final_active = np.zeros(self.ntraj, dtype=np.int64)
        self.ke_factor = np.ones(self.ntraj, dtype=np.float64)
        self.done = np.zeros(len(self.batches), dtype=bool)
        # SupervisableRun surface.
        self.step_count = 0
        self.time = 0.0
        self.history: List[EnsembleRoundRecord] = []
        self.health_guard: Any = None
        self.config: Any = None

    @classmethod
    def from_config(
        cls,
        path: ClassicalPath,
        config: Optional[EnsembleConfig] = None,
        backend: Optional[str] = "serial",
        workers: Optional[int] = 1,
        round_size: Optional[int] = None,
        **executor_extras: Any,
    ) -> "EnsembleRun":
        """A one-member run of ``config`` on a fresh ``backend`` executor.

        ``round_size`` defaults to one task per worker.
        """
        config = config if config is not None else EnsembleConfig()
        istate = (config.istate if config.istate is not None
                  else path.nstates - 1)
        if round_size is None:
            round_size = max(1, workers if workers is not None else 1)
        return cls(
            path,
            [EnsembleMember(config.ntraj, istate, config.seed)],
            config.policy,
            substeps=config.substeps,
            batch_size=config.batch_size,
            round_size=round_size,
            executor=make_executor(backend, workers=workers,
                                   seed=config.seed, **executor_extras),
        )

    # ------------------------------------------------------------------ #
    @property
    def complete(self) -> bool:
        return bool(self.done.all())

    @property
    def rounds_remaining(self) -> int:
        """Supervisable steps needed to finish the pending tasks."""
        pending = int(np.count_nonzero(~self.done))
        return math.ceil(pending / self.round_size)

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        self._executor.shutdown()

    def __enter__(self) -> "EnsembleRun":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _batch_item(self, index: int) -> Tuple[Any, ...]:
        return (self.path.energies, self.path.nac, self.path.kinetic,
                self.path.dt, self.batches[index], self.substeps,
                self.policy)

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
        """Run one round of pending tasks (the supervisable unit)."""
        todo = np.nonzero(~self.done)[0][: self.round_size]
        if todo.size:
            items = [self._batch_item(int(i)) for i in todo]
            with trace_span("ensemble.round", "md",
                            round=self.step_count, batches=len(items),
                            jobs=len(self.members), ntraj=self.ntraj):
                results = self._executor.map(
                    _swarm_task, items, label="ensemble.batches"
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

    def run(self) -> List[EnsembleResult]:
        """Run every pending round; returns the per-member results."""
        while not self.complete:
            self.md_step()
        return self.results()

    def results(self) -> List[EnsembleResult]:
        """Each member's :class:`EnsembleResult`, in member order.

        All tasks must be done (raises ``RuntimeError`` on a partial
        run).  Traces are views of the run's stacked arrays, made
        contiguous where a member shares the stack with others.
        """
        if not self.complete:
            raise RuntimeError(
                f"ensemble incomplete: {int(np.count_nonzero(self.done))}"
                f"/{len(self.batches)} batches done"
            )
        out: List[EnsembleResult] = []
        offset = 0
        for m in self.members:
            sl = slice(offset, offset + m.ntraj)
            pops = np.ascontiguousarray(self.populations[:, sl, :])
            acts = np.ascontiguousarray(self.actives[:, sl])
            out.append(EnsembleResult(
                stats=compute_stats(pops, acts),
                populations=pops,
                actives=acts,
                hops=self.hops[sl],
                final_amplitudes=self.final_amplitudes[sl],
                final_active=self.final_active[sl],
                ke_factor=self.ke_factor[sl],
            ))
            offset += m.ntraj
        return out

    def result(self) -> EnsembleResult:
        """The result of a one-member run (see :meth:`results`)."""
        if len(self.members) != 1:
            raise ValueError(
                f"result() needs a one-member run; this one has "
                f"{len(self.members)} members (use results())"
            )
        return self.results()[0]

    # ------------------------------------------------------------------ #
    def _fingerprint(self) -> str:
        """Config digest a checkpoint must match to be resumable here.

        The payload is hashed through the shared
        :func:`repro.artifacts.fingerprint.config_hash` helper -- the
        same canonical-JSON digest that keys tuning winners and serve
        artifacts -- so "which run wrote this checkpoint" and "which
        config produced this artifact" are answered by one scheme.
        """
        p = self.policy
        return config_hash({
            "version": ENSEMBLE_CKPT_VERSION,
            "members": [[m.ntraj, m.istate, m.seed] for m in self.members],
            "substeps": self.substeps,
            "batch_size": self.batch_size,
            "nsteps": self.path.nsteps,
            "nstates": self.path.nstates,
            "dt": self.path.dt,
            "policy": [p.hop_rescale, p.hop_reject,
                       p.dec_correction or "", p.edc_parameter],
            # A constant since the array-API substrate axis was retired:
            # it keeps the digest of checkpoints written before then.
            "array_backend": "numpy",
        })

    def checkpoint_state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """The partial run as ``(arrays, meta)`` for the checkpoint writer."""
        meta = {"fingerprint": self._fingerprint(),
                "step_count": self.step_count}
        arrays = {
            "populations": self.populations,
            "actives": self.actives,
            "hops": self.hops,
            "final_amplitudes": self.final_amplitudes,
            "final_active": self.final_active,
            "ke_factor": self.ke_factor,
            "done": self.done,
        }
        return arrays, meta

    def restore_state(self, arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]) -> None:
        """Restore a partial run snapshotted by :meth:`checkpoint_state`.

        Two-phase: every array is validated against this run's
        configuration fingerprint before any state is touched.  A
        fingerprint mismatch raises
        :class:`~repro.resilience.checkpointing.CheckpointCorruptError`
        so the restore machinery falls back a generation rather than
        splicing an incompatible ensemble into this run.
        """
        loaded = {
            key: arrays[key]
            for key in ("populations", "actives", "hops",
                        "final_amplitudes", "final_active",
                        "ke_factor", "done")
        }
        step_count = int(meta.get("step_count", -1))
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
    with EnsembleRun.from_config(path, config, backend=backend,
                                 workers=workers, round_size=round_size,
                                 **executor_extras) as run:
        run.run()
        return run.result()
