"""Job specs: validation, canonical parameters, batch and artifact keys.

A job arrives as ``{"kind": ..., "params": {...}}``.  Validation fills
every omitted parameter with its canonical default (the same defaults
the one-shot CLI uses), so two requests meaning the same computation
carry byte-identical parameter dicts -- which makes the config hash, and
therefore artifact-store memoization, order- and omission-insensitive.

Three keys derive from a validated spec:

* :func:`batch_key` -- jobs with equal non-None batch keys may be
  coalesced into one execution (same physics configuration, differing
  only in the per-request axes the batched kernels are invariant to:
  RNG seeds for ensembles, whole independent systems for SCF).  ``run``
  jobs are always singletons.
* :func:`warm_key` -- the ground-state stage identity for the warm-state
  pool; jobs sharing it reuse one converged SCF/eigensolve verbatim.
* :func:`artifact_key` -- the content address for result memoization:
  config hash + per-kind code fingerprint + machine fingerprint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.artifacts import ArtifactKey, config_hash, machine_fingerprint
from repro.artifacts import code_fingerprint as _code_fingerprint
from repro.serve.protocol import JOB_KINDS

#: Canonical per-kind parameter defaults (mirrors the CLI defaults, so a
#: daemon job with default params reproduces the default CLI invocation).
PARAM_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "run": {
        "grid": 16,
        "spacing": 0.6,
        "species": "O",
        "steps": 5,
        "dt_md": 2.0,
        "n_qd": 20,
        "nscf": 2,
        "ncg": 3,
        "buffer": 3,
        "e0": 0.02,
        "omega": 0.3,
        "excite": False,
        "seed": 11,
    },
    "spectrum": {
        "grid": 12,
        "norb": 4,
        "depth": 3.0,
        "steps": 800,
        "seed": 0,
    },
    "scf": {
        "grid": 12,
        "spacing": 0.5,
        "species": "H",
        "separation": 1.4,
        "norb": 4,
        "nscf": 3,
        "ncg": 3,
        "seed": 1234,
    },
    "ensemble": {
        "ntraj": 32,
        "nsteps": 50,
        "nstates": 4,
        "dt": 1.0,
        "path_seed": 7,
        "coupling": 0.08,
        "seed": 2024,
        "istate": None,
        "substeps": 20,
        "hop_rescale": "energy",
        "hop_reject": "keep",
        "decoherence": "none",
        "edc_parameter": 0.1,
        "batch_size": None,
    },
}

#: Ensemble parameters that do NOT break request coalescing: the batched
#: swarm kernels are row-invariant, so jobs differing only in these axes
#: produce bit-identical per-trajectory results when stacked together
#: (istate is per-segment in the stacked tasks, so it is free too).
_ENSEMBLE_FREE_AXES = ("seed", "ntraj", "batch_size", "istate")

_JOB_COUNTER = itertools.count(1)


@dataclass(frozen=True)
class JobSpec:
    """One validated job: kind, canonical params, serving options."""

    kind: str
    params: Dict[str, Any]
    job_id: str
    deadline_s: Optional[float] = None
    memoize: bool = True
    enqueued_at: float = field(default=0.0, compare=False)

    @property
    def config_digest(self) -> str:
        """Config-hash identity of this job's computation."""
        return config_hash({"kind": self.kind, "params": self.params})


def validate_job(raw: Mapping[str, Any],
                 default_deadline_s: Optional[float] = None) -> JobSpec:
    """Check and canonicalize one raw job dict into a :class:`JobSpec`.

    Unknown kinds and unknown parameter names raise ``ValueError`` (a
    typo must not silently become a default-parameter run).
    """
    kind = raw.get("kind")
    if kind not in JOB_KINDS:
        raise ValueError(
            f"unknown job kind {kind!r} (expected one of {JOB_KINDS})"
        )
    defaults = PARAM_DEFAULTS[kind]
    given = raw.get("params") or {}
    if not isinstance(given, Mapping):
        raise ValueError("job params must be an object")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown {kind} parameter(s) {unknown}; "
            f"known: {sorted(defaults)}"
        )
    params = dict(defaults)
    params.update({k: given[k] for k in given})
    deadline = raw.get("deadline_s", default_deadline_s)
    if deadline is not None:
        deadline = float(deadline)
        if deadline <= 0:
            raise ValueError("deadline_s must be positive (or null)")
    job_id = str(raw.get("id") or f"job-{next(_JOB_COUNTER)}")
    return JobSpec(
        kind=str(kind),
        params=params,
        job_id=job_id,
        deadline_s=deadline,
        memoize=bool(raw.get("memoize", True)),
    )


# ---------------------------------------------------------------------- #
# keys
# ---------------------------------------------------------------------- #
def batch_key(spec: JobSpec) -> Optional[str]:
    """Coalescing compatibility class, or None for singleton-only jobs.

    * ``scf`` jobs are independent systems: any mix coalesces into one
      ``scf_solve_batch`` call.
    * ``ensemble`` jobs coalesce when everything but the free axes
      (seed, ntraj, batch_size) matches -- same classical path and
      physics policy.
    * ``spectrum`` jobs coalesce when they share a ground state, so one
      converged eigensolve serves the whole group.
    * ``run`` jobs (full DC-MESH simulations) never coalesce.
    """
    if spec.kind == "scf":
        return "scf"
    if spec.kind == "ensemble":
        shared = {k: v for k, v in spec.params.items()
                  if k not in _ENSEMBLE_FREE_AXES}
        return f"ensemble:{config_hash(shared)}"
    if spec.kind == "spectrum":
        return f"spectrum:{config_hash(warm_key_payload(spec))}"
    return None


def warm_key_payload(spec: JobSpec) -> Dict[str, Any]:
    """The ground-state-stage parameters of a warm-poolable job."""
    if spec.kind == "spectrum":
        return {"stage": "spectrum-gs",
                **{k: spec.params[k]
                   for k in ("grid", "norb", "depth", "seed")}}
    if spec.kind == "scf":
        return {"stage": "scf-gs", **spec.params}
    raise ValueError(f"{spec.kind} jobs have no warm-poolable stage")


def warm_key(spec: JobSpec) -> str:
    """Warm-state pool key of a job's ground-state stage."""
    return config_hash(warm_key_payload(spec))


@lru_cache(maxsize=None)
def kind_code_fingerprint(kind: str) -> str:
    """Code fingerprint of the modules whose edits invalidate ``kind``.

    Computed once per process per kind (the module sources cannot change
    under a running daemon without a restart).
    """
    import repro.core.mesh
    import repro.ensemble.engine
    import repro.ensemble.path
    import repro.ensemble.swarm
    import repro.qxmd.scf
    import repro.qxmd.sh_kernels
    import repro.serve.workloads

    modules = {
        "run": [repro.serve.workloads, repro.core.mesh, repro.qxmd.scf],
        "spectrum": [repro.serve.workloads],
        "scf": [repro.serve.workloads, repro.qxmd.scf],
        "ensemble": [repro.serve.workloads, repro.ensemble.engine,
                     repro.ensemble.swarm, repro.ensemble.path,
                     repro.qxmd.sh_kernels],
    }[kind]
    return _code_fingerprint(modules)


def artifact_key(spec: JobSpec,
                 machine: Optional[str] = None) -> ArtifactKey:
    """Content address of this job's memoized result."""
    return ArtifactKey(
        kind=f"serve.{spec.kind}",
        config=spec.config_digest,
        code=kind_code_fingerprint(spec.kind),
        machine=machine if machine is not None else machine_fingerprint(),
    )


def group_signature(specs: Tuple[JobSpec, ...]) -> str:
    """Stable digest of a coalesced group (for scratch-dir naming)."""
    return config_hash([
        {"kind": s.kind, "params": s.params, "id": s.job_id} for s in specs
    ])
