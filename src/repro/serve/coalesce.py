"""Cross-request coalescing: many jobs, one supervised ensemble run.

The swarm kernels are *batch-size invariant*: each trajectory row
evolves identically no matter which rows share its stacked arrays, and
its RNG stream is a pure function of ``(job seed, trajectory index)``.
That is what makes cross-*request* coalescing free: the daemon turns
each queued ensemble job into one
:class:`~repro.ensemble.engine.EnsembleMember` of a single
:class:`~repro.ensemble.engine.EnsembleRun`, so four 8-trajectory
requests cost one 32-wide batched sweep instead of four narrow ones --
and every job's results are bit-identical to running it alone.

This module holds the serve-side driver of such a group: the run
supervisor with one checkpointed round per segment.
"""

from __future__ import annotations

import pathlib
from typing import List, Optional, Union

from repro.ensemble.engine import EnsembleResult, EnsembleRun


def run_group_supervised(
    group: EnsembleRun,
    checkpoint_dir: Union[str, pathlib.Path],
    deadline_s: Optional[float] = None,
    max_retries: int = 1,
) -> List[EnsembleResult]:
    """Drive a coalesced group to completion under the run supervisor.

    One round per checkpointed segment; the tightest member deadline is
    the segment budget.  Recoverable faults (worker crashes, deadline
    expiry with relaxation, torn checkpoints) heal instead of failing
    every job in the group.  Returns one result per member.
    """
    from repro.resilience.supervisor import RunSupervisor, SupervisorConfig

    supervisor = RunSupervisor(
        group,
        checkpoint_dir,
        SupervisorConfig(
            checkpoint_every=1,
            max_retries=max_retries,
            deadline_s=deadline_s,
        ),
    )
    supervisor.run(group.rounds_remaining)
    return group.results()
