"""The serving workload: ``serve_mix``.

The daemon runs in the benchmark process behind the public
:class:`repro.serve.DaemonHandle`, with the artifact store on.  Two
closed-loop clients, one connection each (one per core of a two-core
machine), send one job at a time from a seeded mix, in shuffled blocks
of ten:

* 3 ensemble jobs with fresh seeds, memoized: batched swarms that
  coalesce when both clients' jobs meet in the queue, and artifact writes;
* 2 exact ensemble repeats, memoized: artifact reads after the first;
* 2 scf jobs (12^3 grid, 3 SCF x 3 CG) over three ground states, not
  memoized: warm-pool hits after the first of each;
* 3 spectrum jobs of 190-210 steps over two shared ground states, not
  memoized: warm ground states, fresh propagations.

Fixed block proportions give every run the same mix of job kinds, so
latency percentiles from different runs compare like with like.
"""

from __future__ import annotations

import contextlib
import math
import os
import pathlib
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

BLOCK = ("ens", "ens", "ens", "memo", "memo", "scf", "scf",
         "spec", "spec", "spec")
MEMO_SEEDS = (1, 2, 3)
SCF_SEPARATIONS = (1.3, 1.4, 1.5)
SPECTRUM_SEEDS = (0, 1)
CLIENTS = 2

#: Served jobs per kind recomputed one-shot for the bitwise check.
CHECK_PER_KIND = 2

#: Daemon start -> first answered ping, repeated for the setup median.
SETUP_REPEATS = 15


class Mix:
    """One client's seeded job stream."""

    def __init__(self, seed: int, client: int) -> None:
        self.client = client
        self.rng = np.random.default_rng([seed, client])
        self.block: List[str] = []
        self.count = 0

    def next_job(self) -> Tuple[str, Dict[str, Any]]:
        if not self.block:
            self.block = [str(k) for k in self.rng.permutation(BLOCK)]
        tag = self.block.pop()
        self.count += 1
        rng = self.rng
        job: Dict[str, Any]
        if tag == "ens":
            job = {"kind": "ensemble", "memoize": True,
                   "params": {"seed": int(rng.integers(1 << 30))}}
        elif tag == "memo":
            job = {"kind": "ensemble", "memoize": True,
                   "params": {"seed": int(rng.choice(MEMO_SEEDS))}}
        elif tag == "scf":
            job = {"kind": "scf", "memoize": False,
                   "params": {"separation": float(rng.choice(SCF_SEPARATIONS))}}
        else:
            job = {"kind": "spectrum", "memoize": False,
                   "params": {"seed": int(rng.choice(SPECTRUM_SEEDS)),
                              "steps": int(rng.integers(190, 211))}}
        job["id"] = f"c{self.client}-{self.count}"
        return tag, job


class Served:
    """Client-side record of one run window."""

    def __init__(self) -> None:
        self.jobs: List[Tuple[str, Dict[str, Any], Dict[str, Any], float]] = []
        self.wall_s = 0.0
        self.lock = threading.Lock()

    @property
    def ok(self) -> List[Tuple[str, Dict[str, Any], Dict[str, Any], float]]:
        return [j for j in self.jobs if j[2].get("status") == "ok"]

    def latencies(self) -> List[float]:
        """Client latency per job; a failed job misses every limit."""
        return [lat if resp.get("status") == "ok" else float("inf")
                for _, _, resp, lat in self.jobs]


def _socket_path(path: pathlib.Path) -> pathlib.Path:
    # AF_UNIX paths are limited to ~108 bytes; prefer the shorter form.
    rel = pathlib.Path(os.path.relpath(path))
    return rel if len(str(rel)) < len(str(path)) else path


def _config(work: pathlib.Path) -> Any:
    from repro.serve import ServeConfig

    work.mkdir(parents=True, exist_ok=True)
    return ServeConfig(socket_path=_socket_path(work / "serve.sock"),
                       artifact_root=work / "artifacts",
                       scratch_root=work / "scratch")


def start(work: pathlib.Path) -> Tuple[Any, float]:
    """A started daemon and its start-to-first-ping time."""
    from repro.serve import DaemonHandle, ServeClient

    config = _config(work)
    t0 = time.perf_counter()
    handle = DaemonHandle(config).start()
    if not ServeClient(config.socket_path, timeout_s=30).ping():
        handle.stop()
        raise RuntimeError("daemon did not answer its first ping")
    return handle, time.perf_counter() - t0


def measure_setup(work: pathlib.Path) -> List[float]:
    """Daemon start-up times, after one untimed start for warm-up."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        handle, elapsed = start(work / f"setup-{i}")
        handle.stop()
        if i:
            samples.append(elapsed)
    return samples


def drive(handle: Any, seed: int, seconds: float) -> Served:
    """Run both closed-loop clients against ``handle`` for ``seconds``."""
    from repro.serve import ServeClient

    served = Served()
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def client_loop(client: int) -> None:
        mix = Mix(seed, client)
        conn = ServeClient(handle.config.socket_path, timeout_s=120)
        while time.perf_counter() < deadline:
            tag, job = mix.next_job()
            t0 = time.perf_counter()
            try:
                (response,) = conn.submit([job])
            except Exception as exc:  # a refused or broken request failed
                response = {"status": "error", "error": repr(exc)}
            latency = time.perf_counter() - t0
            with served.lock:
                served.jobs.append((tag, job, response, latency))

    threads = [threading.Thread(target=client_loop, args=(c,),
                                name=f"perfbench-client-{c}")
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(seconds + 300)
        if t.is_alive():
            raise RuntimeError("a client did not finish")
    served.wall_s = time.perf_counter() - t_start
    return served


# ---------------------------------------------------------------------- #
def one_shot(job: Dict[str, Any]) -> Dict[str, Any]:
    """The same job computed directly through ``repro.serve.workloads``."""
    from repro.ensemble import EnsembleConfig, run_ensemble
    from repro.qxmd.scf import scf_solve_batch
    from repro.serve import workloads
    from repro.serve.jobs import validate_job

    full = validate_job({"kind": job["kind"], "params": job["params"]}).params
    if job["kind"] == "scf":
        (result,) = scf_solve_batch([workloads.scf_task(full)])
        return workloads.scf_payload(result)
    if job["kind"] == "spectrum":
        gs = workloads.spectrum_ground_state(full)
        return workloads.spectrum_payload(gs, full)
    istate = full["istate"]
    result = run_ensemble(workloads.ensemble_path(full), EnsembleConfig(
        ntraj=int(full["ntraj"]),
        seed=int(full["seed"]),
        istate=int(full["nstates"]) - 1 if istate is None else int(istate),
        substeps=int(full["substeps"]),
        policy=workloads.ensemble_policy(full),
    ))
    return workloads.ensemble_payload(result)


def bitwise_equal(got: Dict[str, Any], want: Dict[str, Any]) -> bool:
    """Same keys, same dtypes, equal arrays and scalars."""
    if set(got) != set(want):
        return False
    for name, ref in want.items():
        value = got[name]
        if isinstance(ref, np.ndarray):
            if not (isinstance(value, np.ndarray) and value.dtype == ref.dtype
                    and np.array_equal(value, ref)):
                return False
        elif value != ref:
            return False
    return True


class Checked:
    """Output-check result of one window."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.plain_s = 0.0
        self.traced_s = 0.0


def check(served: Served, seed: int, traced: bool) -> Checked:
    """Non-ok jobs fail, and so do sampled jobs that differ one-shot.

    With ``traced`` each sampled job is also recomputed with the layer
    wrappers and the obs tracer on: it must equal the untraced answer
    bitwise, and the paired times give the tracing overhead.
    """
    from repro.obs import Tracer, tracing

    from layers import LayerClock, install

    out = Checked()
    out.failures = [f"{job['id']}: {resp.get('status')} {resp.get('error')}"
                    for _, job, resp, _ in served.jobs
                    if resp.get("status") != "ok"]
    rng = np.random.default_rng([seed, 99])
    for tag in sorted(set(BLOCK)):
        pool = [(job, resp) for t, job, resp, _ in served.ok if t == tag]
        if not pool:
            continue
        picks = rng.choice(len(pool), size=min(CHECK_PER_KIND, len(pool)),
                           replace=False)
        for i in sorted(int(p) for p in picks):
            job, resp = pool[i]
            t0 = time.perf_counter()
            want = one_shot(job)
            out.plain_s += time.perf_counter() - t0
            if not bitwise_equal(resp["result"], want):
                out.failures.append(f"{job['id']}: differs from one-shot")
            if not traced:
                continue
            scratch = LayerClock()
            install(scratch)
            try:
                with tracing(Tracer()):
                    t0 = time.perf_counter()
                    again = one_shot(job)
                    out.traced_s += time.perf_counter() - t0
            finally:
                scratch.uninstall()
            if not bitwise_equal(again, want):
                out.failures.append(f"{job['id']}: traced one-shot differs")
    return out


def summary(served: Served) -> Dict[str, float]:
    """Client-observed throughput and nearest-rank latency percentiles."""
    lat = sorted(served.latencies())
    return {
        "jobs": float(len(lat)),
        "jobs_per_s": len(served.ok) / served.wall_s,
        "p50_s": lat[math.ceil(0.5 * len(lat)) - 1],
        "p90_s": lat[math.ceil(0.9 * len(lat)) - 1],
    }


def run(seed: int, seconds: float, work: pathlib.Path,
        clock: Optional[Any] = None) -> Tuple[List[float], Served, List[Any]]:
    """Set-up samples, the served window and the obs spans (traced only).

    With ``clock`` the layer wrappers and the obs tracer are on for the
    whole window.
    """
    from repro.obs import Tracer, tracing

    from layers import install

    setup = measure_setup(work)
    tracer = Tracer()
    if clock is not None:
        install(clock)
    try:
        with tracing(tracer) if clock is not None else contextlib.nullcontext():
            handle, _ = start(work / "run")
            try:
                served = drive(handle, seed, seconds)
            finally:
                handle.stop()
    finally:
        if clock is not None:
            clock.uninstall()
    return setup, served, tracer.records
