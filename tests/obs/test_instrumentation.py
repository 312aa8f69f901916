"""End-to-end tests of the instrumented hot paths.

Each test installs a real tracer via :func:`repro.obs.tracing`, drives
the actual simulation code, and checks that the expected spans appear
with the right paper-taxonomy categories and flop/byte charges.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.grids import Grid3D
from repro.lfd import (
    NonlocalCorrector,
    PropagatorConfig,
    QDPropagator,
    WaveFunctionSet,
    kinetic_step,
    potential_phase_step,
)
from repro.obs import aggregate_by_phase, load_chrome_trace, tracing
from repro.parallel import SimComm


def small_wf(norb=3, n=6, seed=0):
    grid = Grid3D.cubic(n, 0.5)
    wf = WaveFunctionSet.random(grid, norb, np.random.default_rng(seed))
    vloc = 0.2 * np.random.default_rng(seed + 1).standard_normal(grid.shape)
    return grid, wf, vloc


class TestKernelSpans:
    def test_kinetic_step_span(self):
        _, wf, _ = small_wf()
        with tracing() as tr:
            kinetic_step(wf, 0.02, variant="collapsed")
        (r,) = tr.records
        assert r.name == "kin_prop"
        assert r.category == "kinetic"
        # 9 passes x 14 flops x points x orbitals.
        pts = wf.grid.npoints * wf.norb
        assert r.flops == pytest.approx(9 * 14 * pts)
        assert r.bytes_moved == pytest.approx(9 * 3 * wf.psi.itemsize * pts)

    def test_kinetic_step_span_gemm(self):
        _, wf, _ = small_wf()
        with tracing() as tr:
            kinetic_step(wf, 0.02, variant="gemm")
        (r,) = tr.records
        assert r.name == "kin_prop"
        # One complex multiply-add (8 flops) per matrix entry used: n_d
        # per point-orbital along each axis; five sweeps over psi.
        pts = wf.grid.npoints * wf.norb
        assert r.flops == pytest.approx(8 * sum(wf.grid.shape) * pts)
        assert r.bytes_moved == pytest.approx(10 * wf.psi.itemsize * pts)

    def test_potential_step_span(self):
        _, wf, vloc = small_wf()
        with tracing() as tr:
            potential_phase_step(wf, vloc, 0.01)
        (r,) = tr.records
        assert r.name == "pot_prop"
        assert r.category == "potential"
        assert r.flops > 0

    def test_nonlocal_span_matches_cost_model(self):
        grid, wf, _ = small_wf()
        ref = WaveFunctionSet.random(grid, 2, np.random.default_rng(5))
        corr = NonlocalCorrector(ref, 0.12)
        with tracing() as tr:
            corr.apply(wf, 0.02)
        (r,) = tr.records
        assert r.name == "nonlocal_corr"
        assert r.category == "nonlocal"
        assert r.flops == pytest.approx(
            corr.flop_count(wf.norb, grid.npoints)
        )
        assert r.bytes_moved == pytest.approx(
            corr.byte_count(wf.norb, grid.npoints, wf.psi.itemsize)
        )

    def test_propagator_step_hierarchy(self):
        _, wf, vloc = small_wf()
        prop = QDPropagator(wf, vloc, PropagatorConfig(dt=0.02))
        with tracing() as tr:
            prop.run(2)
        names = [r.name for r in tr.records]
        assert names.count("qd.step") == 2
        assert names.count("qd.run") == 1
        assert names.count("kin_prop") == 2
        # Kernels nest under qd.step, which nests under qd.run.
        kin = [r for r in tr.records if r.name == "kin_prop"][0]
        step = [r for r in tr.records if r.name == "qd.step"][0]
        run = [r for r in tr.records if r.name == "qd.run"][0]
        assert run.depth == 0 and step.depth == 1 and kin.depth == 2
        # The run span's duration contains everything beneath it.
        assert run.duration >= step.duration >= kin.duration

    def test_comm_spans(self):
        comm = SimComm(nranks=4)
        with tracing() as tr:
            comm.bcast(np.ones(8), root=0)
            comm.allreduce([np.ones(8) for _ in range(4)])
            comm.barrier()
        names = [r.name for r in tr.records]
        assert names == ["comm.bcast", "comm.allreduce", "comm.barrier"]
        assert all(r.category == "comm" for r in tr.records)
        assert all(r.args == {"nranks": 4} for r in tr.records)


class TestCliTrace:
    def test_run_trace_out_is_valid_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(["run", "--grid", "12", "--steps", "1", "--n-qd", "3",
                     "--trace-out", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "per-phase trace breakdown" in out

        doc = load_chrome_trace(trace)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events, "trace must contain complete events"
        cats = {e["cat"] for e in events}
        # The coupled run exercises the whole taxonomy stack.
        for phase in ("kinetic", "potential", "hartree", "scf", "md",
                      "forces", "lfd"):
            assert phase in cats, f"missing phase {phase}"
        # Events are well-formed for chrome://tracing.
        for e in events:
            assert e["dur"] >= 0.0
            assert isinstance(e["tid"], int)

    def test_trace_off_leaves_no_file(self, tmp_path, capsys):
        code = main(["run", "--grid", "12", "--steps", "1", "--n-qd", "3"])
        assert code == 0
        assert "per-phase" not in capsys.readouterr().out

    def test_supervised_run_records_checkpoint_spans(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main([
            "run", "--grid", "12", "--steps", "2", "--n-qd", "3",
            "--checkpoint-every", "1",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--trace-out", str(trace),
        ])
        assert code == 0
        doc = load_chrome_trace(trace)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert "checkpoint.write" in names
        assert "supervisor.segment" in names

    def test_phase_self_times_partition_wall_time(self):
        """Per-phase self times sum to the root spans' wall time exactly."""
        with tracing() as tr:
            main(["run", "--grid", "12", "--steps", "1", "--n-qd", "3"])
        stats = aggregate_by_phase(tr.records)
        total_self = sum(s.self_s for s in stats.values())
        total_root = sum(r.duration for r in tr.records if r.depth == 0)
        assert total_self == pytest.approx(total_root, rel=1e-9)
