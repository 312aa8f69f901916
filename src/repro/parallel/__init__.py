"""Simulated MPI and the Polaris machine model.

The paper's scaling studies run up to 1,024 MPI ranks on Polaris.  This
package provides (i) :class:`SimComm`, a rank-faithful serial executor of
MPI collectives over real NumPy buffers (results are numerically
identical to a real MPI run), and (ii) an event-driven performance model
of Polaris (4 A100 GPUs per node, NVLink intra-node, Slingshot dragonfly
inter-node) that turns per-rank kernel times plus modeled communication
into the weak/strong-scaling efficiencies of Figs. 2-3.
"""

from repro.parallel.comm import SimComm
from repro.parallel.executor import (
    BACKENDS,
    DomainExecutor,
    WorkerCrashError,
    make_executor,
    worker_rng,
)
from repro.parallel.backends import ProcessBackend, SerialBackend, ThreadBackend
from repro.parallel.network import (
    NetworkSpec,
    SLINGSHOT,
    NVLINK_NET,
    allreduce_time,
    bcast_time,
    point_to_point_time,
    tree_reduce_time,
)
from repro.parallel.cluster import PolarisModel
from repro.parallel.timeline import RankTimeline
from repro.parallel.decomposition import SpaceBandDecomposition
from repro.parallel.scaling import (
    DCMeshStepModel,
    ScalingPoint,
    weak_scaling_study,
    strong_scaling_study,
    fit_weak_efficiency_law,
    fit_strong_efficiency_law,
)

__all__ = [
    "SimComm",
    "BACKENDS",
    "DomainExecutor",
    "WorkerCrashError",
    "make_executor",
    "worker_rng",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "NetworkSpec",
    "SLINGSHOT",
    "NVLINK_NET",
    "allreduce_time",
    "bcast_time",
    "point_to_point_time",
    "tree_reduce_time",
    "PolarisModel",
    "RankTimeline",
    "SpaceBandDecomposition",
    "DCMeshStepModel",
    "ScalingPoint",
    "weak_scaling_study",
    "strong_scaling_study",
    "fit_weak_efficiency_law",
    "fit_strong_efficiency_law",
]
