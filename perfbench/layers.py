"""Per-layer timing from outside the program.

:class:`LayerClock` wraps the public entry points of each layer at run
time -- methods on their classes, and module-level functions in every
``repro`` module that imported them by name -- and keeps, per layer
name, the call count, inclusive wall time, self time (inclusive minus
the wrapped calls directly inside it) and any extra counters a probe
derives from the call's arguments or result (computed flops and bytes,
V-cycles, cache hits).  Nothing under ``src/`` changes; uninstalling
restores every original object, so untraced runs execute the program
exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Modules imported before wrapping so that every by-name import of a
#: wrapped function already exists and can be rebound.
MODULES = (
    "repro.core.mesh",
    "repro.parallel.backends.serial",
    "repro.parallel.backends.thread",
    "repro.qxmd.dftsolver",
    "repro.qxmd.cg",
    "repro.qxmd.nac",
    "repro.qxmd.scf",
    "repro.qxmd.hartree",
    "repro.qxmd.hamiltonian",
    "repro.qxmd.surface_hopping",
    "repro.qxmd.forces",
    "repro.core.scissor",
    "repro.pseudo.local",
    "repro.multigrid.poisson",
    "repro.lfd.propagator",
    "repro.lfd.kin_prop",
    "repro.lfd.pot_prop",
    "repro.lfd.nonlocal_corr",
    "repro.lfd.occupations",
    "repro.ensemble.swarm",
    "repro.serve.daemon",
    "repro.serve.pool",
    "repro.serve.coalesce",
    "repro.artifacts.store",
)

#: A probe maps ``(args, kwargs, result, seconds)`` of one call to extra
#: counters summed per layer.
Extra = Callable[[tuple, dict, Any, float], Dict[str, float]]


@dataclass
class LayerStat:
    """Aggregate of one layer name over a traced run."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)


class LayerClock:
    """Thread-aware span clock over wrapped entry points."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: Dict[str, LayerStat] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, total: float, child: float,
                extra: Optional[Dict[str, float]]) -> None:
        with self._lock:
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = LayerStat()
            stat.calls += 1
            stat.total_s += total
            stat.self_s += max(total - child, 0.0)
            for key, value in (extra or {}).items():
                stat.counters[key] = stat.counters.get(key, 0.0) + value

    def timed(self, name: str, fn: Callable[..., Any],
              extra: Optional[Extra] = None) -> Callable[..., Any]:
        """``fn`` wrapped so each call is charged to layer ``name``."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                total = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += total
                self._record(name, total, frame[0],
                             extra(args, kwargs, out, total) if extra
                             else None)

        return wrapper

    def count(self, name: str, **counters: float) -> None:
        """Add counters to layer ``name`` without timing a call."""
        with self._lock:
            stat = self.stats.setdefault(name, LayerStat())
            for key, value in counters.items():
                stat.counters[key] = stat.counters.get(key, 0.0) + value

    # ------------------------------------------------------------------ #
    def patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        """Replace ``owner.attr`` (class or module) and remember the original."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str,
                    extra: Optional[Extra] = None) -> None:
        """Time ``cls.attr`` under layer ``name``."""
        self.patch(cls, attr, self.timed(name, cls.__dict__[attr], extra))

    def wrap_function(self, module: str, attr: str, name: str,
                      extra: Optional[Extra] = None) -> None:
        """Time ``module.attr`` and rebind it in every ``repro`` module
        that holds the same function object under the same name."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.timed(name, original, extra)
        for modname, mod in sorted(sys.modules.items()):
            if (modname == "repro" or modname.startswith("repro.")) \
                    and mod.__dict__.get(attr) is original:
                self.patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped object, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def get(self, name: str) -> LayerStat:
        """The stat for ``name`` (an empty one if it never fired)."""
        with self._lock:
            return self.stats.get(name, LayerStat())


# ---------------------------------------------------------------------- #
# cost probes: computed (not measured) flop and byte counts per call
# ---------------------------------------------------------------------- #
def _kinetic_cost(args: tuple, kwargs: dict, out: Any,
                  seconds: float) -> Dict[str, float]:
    from repro.lfd.costs import LFDWorkload

    wf = args[0]
    step = LFDWorkload(wf.grid.npoints, wf.norb, 0, wf.psi.itemsize,
                       nqd=1).kin_prop_step()
    return {"flops": step.flops, "bytes": step.bytes_moved}


def _potential_cost(args: tuple, kwargs: dict, out: Any,
                    seconds: float) -> Dict[str, float]:
    from repro.lfd.costs import LFDWorkload

    wf = args[0]
    half = LFDWorkload(wf.grid.npoints, wf.norb, 0, wf.psi.itemsize,
                       nqd=1).pot_prop_half()
    return {"flops": half.flops, "bytes": half.bytes_moved}


def _nonlocal_cost(args: tuple, kwargs: dict, out: Any,
                   seconds: float) -> Dict[str, float]:
    corrector, wf = args[0], args[1]
    ngrid = wf.grid.npoints
    return {"flops": corrector.flop_count(wf.norb, ngrid),
            "bytes": corrector.byte_count(wf.norb, ngrid, wf.psi.itemsize)}


def _vcycles(args: tuple, kwargs: dict, out: Any,
             seconds: float) -> Dict[str, float]:
    return {"vcycles": float(out[1].cycles)} if out is not None else {}


def _swarm_size(args: tuple, kwargs: dict, out: Any,
                seconds: float) -> Dict[str, float]:
    return {"traj_steps": float(args[0].amplitudes.shape[0])}


def _group_jobs(args: tuple, kwargs: dict, out: Any,
                seconds: float) -> Dict[str, float]:
    # Every job of a coalesced group waits for the whole execution.
    njobs = len(args[1])
    return {"jobs": float(njobs), "job_s": njobs * seconds}


def _hit(args: tuple, kwargs: dict, out: Any,
         seconds: float) -> Dict[str, float]:
    return {"hits": 0.0 if out is None else 1.0}


def _written(args: tuple, kwargs: dict, out: Any,
             seconds: float) -> Dict[str, float]:
    return {"bytes": float(out.stat().st_size)} if out is not None else {}


# ---------------------------------------------------------------------- #
# the wrapped entry points
# ---------------------------------------------------------------------- #
#: (module, attribute, layer name, probe) for module-level functions.
FUNCTIONS = (
    ("repro.qxmd.cg", "cg_eigensolve", "qxmd.cg", None),
    ("repro.qxmd.cg", "subspace_rotate", "qxmd.subspace_rotate", None),
    ("repro.qxmd.hartree", "hartree_potential", "qxmd.hartree", None),
    ("repro.qxmd.nac", "nonadiabatic_couplings", "qxmd.fssh", None),
    ("repro.core.scissor", "scissor_shift", "qxmd.scissor", None),
    ("repro.pseudo.local", "core_repulsion_pair_forces", "qxmd.forces", None),
    ("repro.lfd.kin_prop", "kinetic_step", "lfd.kinetic", _kinetic_cost),
    ("repro.lfd.pot_prop", "potential_phase_step", "lfd.potential",
     _potential_cost),
    ("repro.lfd.occupations", "remap_occ", "lfd.remap_occ", None),
    ("repro.ensemble.swarm", "step_swarm", "ensemble.step_swarm",
     _swarm_size),
)


def _methods() -> List[Tuple[type, str, str, Optional[Extra]]]:
    from repro.artifacts.store import ArtifactStore
    from repro.core.mesh import DCMESHSimulation
    from repro.lfd.nonlocal_corr import NonlocalCorrector
    from repro.lfd.propagator import QDPropagator
    from repro.multigrid.poisson import PoissonMultigrid
    from repro.qxmd.dftsolver import DomainSolver, GlobalDCSolver
    from repro.qxmd.forces import ForceCalculator
    from repro.qxmd.hamiltonian import KSHamiltonian
    from repro.qxmd.surface_hopping import FSSH
    from repro.serve.pool import WarmStatePool

    return [
        (DCMESHSimulation, "md_step", "core.md_step", None),
        (GlobalDCSolver, "solve", "qxmd.dc_solve", None),
        (DomainSolver, "refine", "qxmd.refine", None),
        (KSHamiltonian, "apply", "qxmd.ham_apply", None),
        (FSSH, "step", "qxmd.fssh", None),
        (ForceCalculator, "electrostatic_forces", "qxmd.forces", None),
        (ForceCalculator, "nonlocal_forces", "qxmd.forces", None),
        (PoissonMultigrid, "solve", "multigrid.solve", _vcycles),
        (QDPropagator, "step", "lfd.qd_step", None),
        (NonlocalCorrector, "apply", "lfd.nonlocal", _nonlocal_cost),
        (WarmStatePool, "get", "serve.pool_get", _hit),
        (ArtifactStore, "get", "artifacts.get", _hit),
        (ArtifactStore, "put", "artifacts.put", _written),
    ]


def install(clock: LayerClock) -> None:
    """Wrap every named entry point on ``clock``."""
    for name in MODULES:
        importlib.import_module(name)
    for module, attr, layer, extra in FUNCTIONS:
        clock.wrap_function(module, attr, layer, extra)
    for cls, attr, layer, extra in _methods():
        clock.wrap_method(cls, attr, layer, extra)
    # The density of the excited-state forces: in the MD driver it is
    # only called from the force evaluation.
    mesh = sys.modules["repro.core.mesh"]
    clock.patch(mesh, "density", clock.timed("qxmd.forces", mesh.density))
    _install_executors(clock)
    _install_serve(clock)


def _install_executors(clock: LayerClock) -> None:
    """``DomainExecutor.map`` with each task timed as ``parallel.task``,
    so the map's self time is its dispatch overhead alone.

    The process backend is left alone: a wrapped task cannot be pickled
    across the process boundary, and no workload here uses it.
    """
    from repro.parallel.backends.serial import SerialBackend
    from repro.parallel.backends.thread import ThreadBackend

    for cls in (SerialBackend, ThreadBackend):
        original = cls.__dict__["map"]

        def map_(executor: Any, fn: Callable[[Any], Any], items: Any,
                 label: str = "tasks", _original: Any = original) -> Any:
            return _original(executor, clock.timed("parallel.task", fn),
                             items, label=label)

        clock.patch(cls, "map", clock.timed("parallel.map",
                                            functools.wraps(original)(map_)))


def _install_serve(clock: LayerClock) -> None:
    """Per-job queue wait and execution time of the daemon.

    The daemon keeps only running totals, so the wrappers read each
    job's enqueue time where the scheduler hands a batch over, and
    charge the wait up to the start of the job's own group execution
    (the linger and any earlier groups of the same batch included).
    """
    from repro.serve.daemon import ServeDaemon

    queued_at: Dict[str, float] = {}
    run_batch = ServeDaemon.__dict__["_run_batch"]
    execute = ServeDaemon.__dict__["_execute_group"]

    @functools.wraps(run_batch)
    async def _run_batch(daemon: Any, loop: Any, batch: List[Any]) -> None:
        for job in batch:
            queued_at[job.spec.job_id] = job.queued_at
        await run_batch(daemon, loop, batch)

    @functools.wraps(execute)
    def _execute_group(daemon: Any, specs: Any) -> Any:
        now = time.monotonic()  # the clock of asyncio's loop.time()
        clock.count("serve.queue", jobs=float(len(specs)),
                    wait_s=sum(now - queued_at.pop(s.job_id, now)
                               for s in specs))
        return execute(daemon, specs)

    clock.patch(ServeDaemon, "_run_batch", _run_batch)
    clock.patch(ServeDaemon, "_execute_group",
                clock.timed("serve.exec", _execute_group, _group_jobs))
