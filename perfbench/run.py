"""The repository benchmark: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload md_lfd --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps every layer's entry points and reports the per-layer
metrics (see ``perfbench/README.md``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--write-reference`` regenerates the stored MD output references.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before NumPy loads: the benchmark is the
# plain single-threaded baseline.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("md_lfd", "md_scf", "serve_mix")

#: Layers each workload must reach; a wrapper that never fires on its
#: workload fails the traced run.
_MD_LAYERS = (
    "core.md_step", "parallel.map", "parallel.task", "qxmd.dc_solve",
    "qxmd.refine", "qxmd.cg", "qxmd.subspace_rotate", "qxmd.ham_apply",
    "qxmd.hartree", "qxmd.scissor", "qxmd.forces", "multigrid.solve",
    "lfd.qd_step", "lfd.kinetic", "lfd.potential", "lfd.nonlocal",
    "lfd.remap_occ",
)
EXPECTED = {
    "md_lfd": _MD_LAYERS,
    "md_scf": _MD_LAYERS + ("qxmd.fssh",),
    "serve_mix": (
        "parallel.map", "parallel.task", "qxmd.cg", "qxmd.subspace_rotate",
        "qxmd.ham_apply", "qxmd.hartree", "multigrid.solve", "lfd.qd_step",
        "lfd.kinetic", "lfd.potential", "ensemble.step_swarm", "serve.exec",
        "serve.queue", "serve.pool_get", "artifacts.get", "artifacts.put",
    ),
}

#: Every per-layer metric with its unit, printed by every traced run
#: (0 where the workload does not reach the layer).
PER_LAYER = (
    ("core.md_step.self_frac", "frac"),
    ("parallel.map.self_s", "s/op"),
    ("qxmd.dc_solve.s", "s/op"),
    ("qxmd.refine.s", "s/op"),
    ("qxmd.cg.s", "s/op"),
    ("qxmd.cg.calls", "count/op"),
    ("qxmd.subspace_rotate.s", "s/op"),
    ("qxmd.ham_apply.calls", "count/op"),
    ("qxmd.ham_apply.s", "s/op"),
    ("qxmd.hartree.s", "s/op"),
    ("qxmd.fssh.s", "s/op"),
    ("qxmd.scissor.s", "s/op"),
    ("qxmd.forces.s", "s/op"),
    ("multigrid.solve.s", "s/op"),
    ("multigrid.solve.calls", "count/op"),
    ("multigrid.vcycles", "count/solve"),
    ("lfd.qd_step.s", "s/op"),
    ("lfd.qd_step.calls", "count/op"),
    ("lfd.kinetic.s", "s/op"),
    ("lfd.kinetic.gflops", "GFLOP/s"),
    ("lfd.kinetic.gbs", "GB/s"),
    ("lfd.kinetic.copy_frac", "frac"),
    ("lfd.potential.s", "s/op"),
    ("lfd.nonlocal.s", "s/op"),
    ("lfd.nonlocal.gflops", "GFLOP/s"),
    ("lfd.nonlocal.gemm_frac", "frac"),
    ("lfd.remap_occ.s", "s/op"),
    ("ensemble.step_swarm.s", "s/op"),
    ("ensemble.traj_steps_per_s", "1/s"),
    ("serve.queue_wait_s", "s/job"),
    ("serve.exec_s", "s/job"),
    ("serve.batch_jobs", "jobs/batch"),
    ("serve.wire_s", "s/job"),
    ("serve.warm_hit_ratio", "frac"),
    ("artifacts.hit_ratio", "frac"),
    ("artifacts.get.s", "s/op"),
    ("artifacts.put.s", "s/op"),
    ("artifacts.bytes_written", "B/op"),
    ("obs.comm.self_s", "s/op"),
    ("machine.gemm_gflops", "GFLOP/s"),
    ("machine.copy_gbs", "GB/s"),
    ("trace.overhead_frac", "frac"),
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference.json and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _finite(value: float) -> float:
    # A failed job's latency is infinite; JSON has no infinity.
    return value if math.isfinite(value) else 1e9


# ---------------------------------------------------------------------- #
def layer_metrics(clock: Any, nops: int, ceilings: Dict[str, float],
                  ) -> Dict[str, float]:
    """The per-layer metrics from one traced window of ``nops`` ops."""
    g = clock.get
    per_op = 1.0 / max(nops, 1)
    out: Dict[str, float] = {}
    for layer in ("qxmd.dc_solve", "qxmd.refine", "qxmd.cg",
                  "qxmd.subspace_rotate", "qxmd.ham_apply", "qxmd.hartree",
                  "qxmd.fssh", "qxmd.scissor", "qxmd.forces",
                  "multigrid.solve", "lfd.qd_step", "lfd.kinetic",
                  "lfd.potential", "lfd.nonlocal", "lfd.remap_occ",
                  "ensemble.step_swarm", "artifacts.get", "artifacts.put"):
        out[f"{layer}.s"] = g(layer).total_s * per_op
    for layer in ("qxmd.cg", "qxmd.ham_apply", "multigrid.solve",
                  "lfd.qd_step"):
        out[f"{layer}.calls"] = g(layer).calls * per_op
    md = g("core.md_step")
    out["core.md_step.self_frac"] = _ratio(md.self_s, md.total_s)
    out["parallel.map.self_s"] = g("parallel.map").self_s * per_op
    mg = g("multigrid.solve")
    out["multigrid.vcycles"] = _ratio(mg.counters.get("vcycles", 0.0),
                                      mg.calls)
    for layer in ("lfd.kinetic", "lfd.nonlocal"):
        stat = g(layer)
        out[f"{layer}.gflops"] = _ratio(stat.counters.get("flops", 0.0),
                                        stat.total_s) / 1e9
    kin = g("lfd.kinetic")
    out["lfd.kinetic.gbs"] = _ratio(kin.counters.get("bytes", 0.0),
                                    kin.total_s) / 1e9
    out["lfd.kinetic.copy_frac"] = _ratio(out["lfd.kinetic.gbs"],
                                          ceilings["copy_gbs"])
    out["lfd.nonlocal.gemm_frac"] = _ratio(out["lfd.nonlocal.gflops"],
                                           ceilings["gemm_gflops"])
    swarm = g("ensemble.step_swarm")
    out["ensemble.traj_steps_per_s"] = _ratio(
        swarm.counters.get("traj_steps", 0.0), swarm.total_s)
    queue, execute = g("serve.queue"), g("serve.exec")
    out["serve.queue_wait_s"] = _ratio(queue.counters.get("wait_s", 0.0),
                                       queue.counters.get("jobs", 0.0))
    out["serve.exec_s"] = _ratio(execute.counters.get("job_s", 0.0),
                                 execute.counters.get("jobs", 0.0))
    out["serve.batch_jobs"] = _ratio(execute.counters.get("jobs", 0.0),
                                     execute.calls)
    pool = g("serve.pool_get")
    out["serve.warm_hit_ratio"] = _ratio(pool.counters.get("hits", 0.0),
                                         pool.calls)
    get = g("artifacts.get")
    out["artifacts.hit_ratio"] = _ratio(get.counters.get("hits", 0.0),
                                        get.calls)
    out["artifacts.bytes_written"] = \
        g("artifacts.put").counters.get("bytes", 0.0) * per_op
    out["machine.gemm_gflops"] = ceilings["gemm_gflops"]
    out["machine.copy_gbs"] = ceilings["copy_gbs"]
    return out


def obs_comm_self(records: List[Any]) -> float:
    """Self time the obs tracer charges to its ``comm`` phase."""
    from repro.obs import aggregate_by_phase

    stats = aggregate_by_phase(records)
    return stats["comm"].self_s if "comm" in stats else 0.0


def missing_layers(workload: str, clock: Any) -> List[str]:
    return [name for name in EXPECTED[workload]
            if name not in clock.stats]


# ---------------------------------------------------------------------- #
def run_md(args: argparse.Namespace) -> Tuple[Dict[str, Any], List[str]]:
    import md
    from machine import ceilings, peak_rss_mb
    from layers import LayerClock

    lines: List[str] = []
    if not args.trace:
        out = md.run(args.workload, args.seed, args.seconds)
        steps = out.step_s
        lines += [
            f"  md_step_s    {statistics.median(steps):.4f} s  "
            f"(median of {len(steps)} steps)",
            f"  setup_s      {statistics.median(out.setup_s):.4f} s  "
            f"(median of {len(out.setup_s)} constructions)",
        ]
        metrics = {
            "setup_s": (statistics.median(out.setup_s), "s"),
            "op_p50_s": (statistics.median(steps), "s"),
            "ops_per_s": (len(steps) / sum(steps), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        return _result(out.attempted, out.failures, metrics, lines, []), lines
    clock = LayerClock()
    out, info = md.run_traced(args.workload, args.seed, args.seconds, clock)
    ceil, sizes = ceilings()
    nsteps = info["traced_steps"]
    per_layer = layer_metrics(clock, nsteps, ceil)
    per_layer["trace.overhead_frac"] = \
        info["median_traced_step_s"] / info["median_step_s"] - 1.0
    per_layer["obs.comm.self_s"] = obs_comm_self(info["obs_records"]) / nsteps
    lines += _trace_report(clock, per_layer, sizes, info["obs_records"], nsteps)
    lines.append(f"  wrapper self-test: {nsteps} traced steps vs untraced, "
                 f"{info['bitwise_mismatches']} episode(s) not bitwise equal")
    problems = [f"wrapper never fired: {name}"
                for name in missing_layers(args.workload, clock)]
    metrics = {name: (per_layer.get(name, 0.0), unit)
               for name, unit in PER_LAYER}
    return _result(out.attempted, out.failures, metrics, lines,
                   problems), lines


def run_serve(args: argparse.Namespace, work: pathlib.Path,
              ) -> Tuple[Dict[str, Any], List[str]]:
    import serve_mix
    from machine import ceilings, peak_rss_mb
    from layers import LayerClock

    clock = LayerClock() if args.trace else None
    setup_s, served, records = serve_mix.run(args.seed, args.seconds, work,
                                             clock)
    checked = serve_mix.check(served, args.seed, traced=clock is not None)
    stats = serve_mix.summary(served)
    setup = statistics.median(setup_s)
    lines = [
        f"  serve_jobs_per_s {stats['jobs_per_s']:.3f} 1/s  "
        f"({int(stats['jobs'])} jobs, 2 closed-loop clients)",
        f"  serve_p50_s      {stats['p50_s']:.4f} s",
        f"  serve_p90_s      {stats['p90_s']:.4f} s",
        f"  setup_s          {setup:.4f} s  "
        f"(median of {len(setup_s)} daemon starts)",
    ]
    if clock is None:
        metrics = {
            "setup_s": (setup, "s"),
            "op_p50_s": (_finite(stats["p50_s"]), "s"),
            "ops_per_s": (stats["jobs_per_s"], "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        return _result(len(served.jobs), checked.failures, metrics, lines,
                       []), lines
    ceil, sizes = ceilings()
    njobs = len(served.ok)
    per_layer = layer_metrics(clock, njobs, ceil)
    latencies = [lat for _, _, _, lat in served.ok]
    per_layer["serve.wire_s"] = (
        _ratio(sum(latencies), len(latencies))
        - per_layer["serve.queue_wait_s"] - per_layer["serve.exec_s"])
    per_layer["trace.overhead_frac"] = \
        _ratio(checked.traced_s, checked.plain_s) - 1.0
    per_layer["obs.comm.self_s"] = obs_comm_self(records) / max(njobs, 1)
    lines += _trace_report(clock, per_layer, sizes, records, njobs)
    lines.append("  wrapper self-test: sampled jobs recomputed one-shot "
                 "untraced and traced, compared bitwise")
    problems = [f"wrapper never fired: {name}"
                for name in missing_layers(args.workload, clock)]
    metrics = {name: (per_layer.get(name, 0.0), unit)
               for name, unit in PER_LAYER}
    return _result(len(served.jobs), checked.failures, metrics, lines,
                   problems), lines


def _trace_report(clock: Any, per_layer: Dict[str, float],
                  sizes: Dict[str, Any], records: List[Any],
                  nops: int) -> List[str]:
    from repro.obs import phase_report

    lines = [f"  per-layer totals over {nops} traced ops "
             "(inclusive / self seconds per op):"]
    for name, stat in sorted(clock.stats.items()):
        lines.append(f"    {name:24s} calls/op {stat.calls / max(nops, 1):9.2f}"
                     f"  incl {stat.total_s / max(nops, 1):.4f}"
                     f"  self {stat.self_s / max(nops, 1):.4f}")
    md = clock.get("core.md_step")
    if md.calls:
        lines.append(f"  named layers cover {1 - per_layer['core.md_step.self_frac']:.2%}"
                     " of md_step wall")
    lines += [
        f"  ceilings: GEMM {per_layer['machine.gemm_gflops']:.2f} GFLOP/s "
        f"(float64 n={sizes['gemm_n']}, {sizes['gemm_arrays_bytes'] / 1e6:.0f} MB"
        f" in 3 arrays), copy {per_layer['machine.copy_gbs']:.2f} GB/s "
        f"({sizes['copy_array_bytes'] / 1e6:.0f} MB per array); "
        f"last-level cache {sizes['llc_bytes'] / 1e6:.0f} MB",
        f"  lfd.kinetic   {per_layer['lfd.kinetic.gflops']:.3f} GFLOP/s, "
        f"{per_layer['lfd.kinetic.gbs']:.3f} GB/s computed bytes "
        f"= {per_layer['lfd.kinetic.copy_frac']:.1%} of copy ceiling",
        f"  lfd.nonlocal  {per_layer['lfd.nonlocal.gflops']:.3f} GFLOP/s "
        f"= {per_layer['lfd.nonlocal.gemm_frac']:.1%} of GEMM ceiling",
        f"  misattribution: qxmd.refine.s {per_layer['qxmd.refine.s']:.4f} s/op"
        f" vs obs 'comm' self time {per_layer['obs.comm.self_s']:.4f} s/op",
        "  obs phase table of the traced window:",
    ]
    lines += ["    " + row for row in phase_report(records).splitlines()]
    return lines


def _result(attempted: int, failures: List[str],
            metrics: Dict[str, Tuple[float, str]], lines: List[str],
            problems: List[str]) -> Dict[str, Any]:
    lines.append(f"  failed_frac  {_ratio(len(failures), attempted):.4f} "
                 f"({len(failures)}/{attempted})")
    for text in failures[:20] + problems:
        lines.append(f"  FAIL {text}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------- #
def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import md
    from machine import environment, loadavg

    if args.write_reference:
        md.write_reference()
        return 0
    load_before = loadavg()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "serve_mix":
            result, lines = run_serve(args, work)
        else:
            result, lines = run_md(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"  metric {name} = {metric['value']:.6g} {metric['unit']}")
    print("  env " + json.dumps(environment(SRC, load_before), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
