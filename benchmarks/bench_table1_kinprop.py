"""Table I: runtime of the kin_prop() kernel across Algorithms 1-5.

Paper values (1,000 QD steps, 64 orbitals, 70x70x72 mesh, one CPU core /
one A100):

    Algorithm 1 (baseline, CPU)      8.655 s   1x
    Algorithm 3 (interchange, CPU)   2.356 s   3.67x
    Algorithm 4 (blocked, CPU)       0.939 s   9.22x
    Algorithm 5 (GPU, nowait)        0.026 s   338x
    Algorithm 5 (GPU, sync)          0.029 s   298x   (async gain 10.35%)

Here: the CPU rows are *measured* (real NumPy kernels at the reduced
scale documented in bench_common; interpreter/cache costs stand in for
scalar/cache costs), the GPU rows are *modeled* on the A100 roofline for
the same reduced workload, including the nowait/sync launch contrast.
One measured row goes beyond the paper: ``gemm``, each direction's
Strang sweep applied as one dense mode product (Eq. 9-style
BLASification of the kinetic term); it has no paper counterpart.
"""

from __future__ import annotations

import sys
import time
from typing import Dict

import pytest

from benchmarks.bench_common import (
    MEASURED_GRID_N,
    MEASURED_NUNOCC,
    measured_setup,
    write_bench_json,
    write_report,
)
from repro.device import A100, KernelLauncher, SimClock, Stream
from repro.lfd import kinetic_step
from repro.lfd.costs import LFDWorkload
from repro.perf import Table, format_seconds, format_speedup

PAPER = {
    "baseline": (8.655, 1.0),
    "interchange": (2.356, 3.67),
    "blocked": (0.939, 9.22),
    "gpu_async": (0.026, 338.0),
    "gpu_sync": (0.029, 298.0),
}

#: Measured CPU variants, in table order.
CPU_VARIANTS = ("baseline", "interchange", "blocked", "collapsed", "gemm")

#: QD steps per measured round (paper: 1,000; ratios are per-step anyway).
NSTEPS = 1

#: Table I keeps the paper's 64 orbitals: the loop-interchange gain
#: (Algorithm 3) only materializes when the orbital axis is long enough
#: to amortize the plane loops, exactly as in the paper's cache argument.
TABLE1_NORB = 64


def measure_cpu_variants(rounds: int = 2) -> Dict[str, float]:
    """Best-of-``rounds`` wall times per CPU variant at the reduced scale."""
    times = {}
    for variant in CPU_VARIANTS:
        _, wf, _, _ = measured_setup(norb=TABLE1_NORB)
        best = float("inf")
        for _ in range(rounds):
            w = wf.copy()
            t0 = time.perf_counter()
            for _ in range(NSTEPS):
                kinetic_step(w, 0.02, variant=variant)
            best = min(best, time.perf_counter() - t0)
        times[variant] = best
    return times


@pytest.fixture(scope="module")
def measured_times():
    """Module-cached :func:`measure_cpu_variants` result."""
    return measure_cpu_variants()


@pytest.mark.parametrize("variant", CPU_VARIANTS)
def test_kin_prop_variant(benchmark, variant):
    """pytest-benchmark timing of each Algorithm variant (measured rows)."""
    _, wf, _, _ = measured_setup(norb=TABLE1_NORB)

    def run():
        kinetic_step(wf, 0.02, variant=variant)

    benchmark.pedantic(run, rounds=2, iterations=1)
    key = {"collapsed": "gpu_async"}.get(variant, variant)
    if key in PAPER:
        benchmark.extra_info["paper_runtime_s"] = PAPER[key][0]
    benchmark.extra_info["workload"] = (
        f"{MEASURED_GRID_N}^3 mesh, {TABLE1_NORB} orbitals, 1 QD step "
        f"(paper: 70x70x72, 64 orbitals, 1000 steps)"
    )


def _modeled_gpu_times() -> tuple[float, float]:
    """(async, sync) modeled A100 times for the measured workload size."""
    w = LFDWorkload(
        ngrid=MEASURED_GRID_N ** 3,
        norb=TABLE1_NORB,
        nunocc=MEASURED_NUNOCC,
        itemsize=16,
        nqd=1,
    )
    pass_cost = w.kin_prop_pass()
    npasses = 9 * NSTEPS

    sync_clock = SimClock()
    sync_launcher = KernelLauncher(A100, sync_clock)
    for i in range(npasses):
        sync_launcher.launch(
            f"kin{i}", pass_cost.flops, pass_cost.bytes_moved, itemsize=8
        )

    async_clock = SimClock()
    async_launcher = KernelLauncher(A100, async_clock)
    stream = Stream(async_clock)
    for i in range(npasses):
        async_launcher.launch(
            f"kin{i}", pass_cost.flops, pass_cost.bytes_moved, itemsize=8,
            stream=stream, nowait=True,
        )
    stream.synchronize()
    return async_clock.now, sync_clock.now


def collect_table1(measured: Dict[str, float]) -> Dict[str, float]:
    """Join the measured CPU rows with the modeled GPU rows."""
    t_async, t_sync = _modeled_gpu_times()
    ours = dict(measured)
    ours["gpu_async"] = t_async
    ours["gpu_sync"] = t_sync
    return ours


def emit_table1_json(ours: Dict[str, float]):
    """Write BENCH_table1_kinprop.json; returns (path, total seconds).

    One kernel entry per Table I row; ``total_s`` is their exact sum, so
    the per-kernel entries reconcile with the reported total by
    construction.  The intermediate ``collapsed`` variant (the GPU
    algorithm's loop structure timed on the CPU) and the beyond-paper
    ``gemm`` variant ride along as measured entries so the regression
    gate also covers them.
    """
    kernels = {}
    for key, t in ours.items():
        kind = "modeled" if key.startswith("gpu_") else "measured"
        entry = {"time_s": t, "kind": kind}
        if key in PAPER:
            entry["paper_time_s"] = PAPER[key][0]
            entry["paper_speedup"] = PAPER[key][1]
        kernels[key] = entry
    total = sum(e["time_s"] for e in kernels.values())
    path = write_bench_json(
        "table1_kinprop",
        kernels,
        workload=dict(
            ngrid=MEASURED_GRID_N ** 3,
            norb=TABLE1_NORB,
            nunocc=MEASURED_NUNOCC,
            nsteps=NSTEPS,
            paper_workload="70x70x72 mesh, 64 orbitals, 1000 QD steps",
        ),
        extra={"async_gain": ours["gpu_sync"] / ours["gpu_async"] - 1.0},
        total_s=total,
    )
    return path, total


def test_table1_report(benchmark, measured_times):
    """Assemble the Table I reproduction and check its shape."""
    ours = benchmark.pedantic(
        collect_table1, args=(measured_times,), rounds=1, iterations=1
    )
    text, speedups = render_table1(ours)
    write_report("table1_kinprop", text)
    emit_table1_json(ours)
    print("\n" + text)

    # Shape assertions: monotone optimization sequence; GPU wins by a
    # large factor; async beats sync.
    assert speedups["interchange"] > 1.2
    assert speedups["blocked"] > speedups["interchange"]
    assert speedups["gpu_async"] > 20.0
    assert speedups["gpu_async"] > speedups["gpu_sync"]


def render_table1(ours: Dict[str, float]):
    """Render the Table I text report; returns (text, speedups-vs-baseline)."""
    base = ours["baseline"]
    table = Table(
        ["implementation", "paper runtime", "paper speedup",
         "ours runtime", "ours speedup", "note"],
        title="Table I -- kin_prop() optimization sequence "
              "(CPU rows measured at reduced scale, GPU rows modeled)",
    )
    rows = [
        ("Algorithm 1 (CPU baseline)", "baseline", "measured"),
        ("Algorithm 3 (loop interchange)", "interchange", "measured"),
        ("Algorithm 4 (blocking)", "blocked", "measured"),
        ("Algorithm 5 (GPU, nowait)", "gpu_async", "modeled A100"),
        ("Algorithm 5 (GPU, sync)", "gpu_sync", "modeled A100"),
        ("Beyond the paper: per-direction GEMM", "gemm", "measured"),
    ]
    speedups = {}
    for label, key, note in rows:
        paper_t, paper_s = PAPER.get(key, (None, None))
        s = base / ours[key]
        speedups[key] = s
        table.add_row(
            label,
            format_seconds(paper_t),
            format_speedup(paper_s),
            format_seconds(ours[key]),
            format_speedup(s),
            note,
        )
    async_gain = ours["gpu_sync"] / ours["gpu_async"] - 1.0
    text = table.render() + (
        f"\nasync (nowait) gain over sync: {async_gain * 100:.2f}% "
        f"(paper: 10.35%)"
    )
    return text, speedups


def main() -> int:
    """Standalone entry: measure, model, write text report + BENCH JSON."""
    ours = collect_table1(measure_cpu_variants())
    text, _ = render_table1(ours)
    report = write_report("table1_kinprop", text)
    json_path, total = emit_table1_json(ours)
    print(text)
    print(f"report: {report}")
    print(f"telemetry: {json_path} (total {total:.6f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
