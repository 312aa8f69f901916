"""RunSupervisor tests: recovery per fault class, abort, degradation."""

import json

import numpy as np
import pytest

from repro.core import TimescaleSplit
from repro.resilience.checkpointing import list_checkpoints
from repro.resilience.faults import FaultPlan, FaultSpec, armed, disarm
from repro.resilience.supervisor import (
    ResilienceLog,
    RunSupervisor,
    SupervisorAbort,
    SupervisorConfig,
)

from tests.core.test_mesh import make_sim

#: Cheap electronic settings for recovery tests (same dt_qd = 0.1 a.u.
#: as the default config, so the splitting stays stable).
CHEAP = dict(timescale=TimescaleSplit(dt_md=0.5, n_qd=5))


@pytest.fixture(autouse=True)
def _always_disarmed():
    disarm()
    yield
    disarm()


class TestConfig:
    def test_defaults_valid(self):
        SupervisorConfig()

    @pytest.mark.parametrize("kwargs", [
        dict(checkpoint_every=0),
        dict(max_retries=-1),
        dict(keep_checkpoints=0),
        dict(backoff_base=-0.1),
        dict(degrade_after=0),
        dict(degrade_mode="panic"),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)


class TestResilienceLog:
    def test_counts_and_events(self):
        log = ResilienceLog()
        log.record("fault", step=3)
        log.record("fault", step=4)
        log.record("restore", step=2)
        assert log.count("fault") == 2
        assert log.count("restore") == 1
        assert log.count("missing") == 0
        assert all("wall_time" in e for e in log.events)

    def test_jsonl_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = ResilienceLog(path)
        log.record("checkpoint", step=1)
        log.record("fault", step=2, error="X")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["error"] == "X"

    def test_to_json_round_trips(self):
        log = ResilienceLog()
        log.record("abort", step=9)
        assert json.loads(log.to_json())[0]["event"] == "abort"


class TestSupervisedEqualsPlain:
    def test_no_plan_is_bit_identical(self, tmp_path):
        """Supervision without faults must not perturb the trajectory."""
        ref = make_sim(seed=7, **CHEAP)
        ref.run(3)

        sim = make_sim(seed=7, **CHEAP)
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(checkpoint_every=2))
        records = sup.run(3)

        assert np.array_equal(sim.md_state.positions, ref.md_state.positions)
        assert np.array_equal(sim.md_state.velocities, ref.md_state.velocities)
        for a, b in zip(sim.dc.states, ref.dc.states):
            assert np.array_equal(a.occupations, b.occupations)
            assert np.array_equal(a.wf.psi, b.wf.psi)
        assert [r.step for r in records] == [1, 2, 3]
        assert sup.log.count("fault") == 0
        # Generation 0 plus one per completed segment (2 segments).
        assert sup.log.count("checkpoint") == 3


class TestRecoveryPerFaultClass:
    """One supervised recovery per injected fault class (ISSUE matrix)."""

    def _reference(self, seed=7):
        ref = make_sim(seed=seed, **CHEAP)
        ref.run(3)
        return ref

    def _assert_matches(self, sim, ref):
        assert np.array_equal(sim.md_state.positions, ref.md_state.positions)
        for a, b in zip(sim.dc.states, ref.dc.states):
            assert np.array_equal(a.occupations, b.occupations)

    def test_scf_divergence(self, tmp_path):
        ref = self._reference()
        sim = make_sim(seed=7, **CHEAP)
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(checkpoint_every=1))
        # 2 scf arrivals per MD step: arrival 2 is step 2, cycle 1.
        with armed(FaultPlan([FaultSpec("qxmd.scf_diverge", at_call=2)])):
            sup.run(3)
        assert sup.log.count("fault") == 1
        assert sup.log.count("recovered") == 1
        self._assert_matches(sim, ref)

    def test_recovered_events_carry_recovery_time(self, tmp_path):
        sim = make_sim(seed=7, **CHEAP)
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(checkpoint_every=1))
        # Arrival 2 diverges step 2; after the restore, step 2 re-runs on
        # arrivals 3-4 and arrival 6 diverges step 3.
        plan = FaultPlan([FaultSpec("qxmd.scf_diverge", at_call=2),
                          FaultSpec("qxmd.scf_diverge", at_call=6)])
        with armed(plan):
            sup.run(3)
        recovered = [e for e in sup.log.events if e["event"] == "recovered"]
        assert len(recovered) == 2
        for event in recovered:
            assert isinstance(event["recovery_s"], float)
            assert event["recovery_s"] >= 0.0

    def test_lfd_nan_caught_by_guard(self, tmp_path):
        ref = self._reference()
        sim = make_sim(seed=7, **CHEAP)
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(checkpoint_every=1))
        # 10 lfd arrivals per MD step (n_qd=5 x 2 domains): arrival 12
        # poisons step 2, domain 0, sub-step 3; the guard trips there.
        with armed(FaultPlan([FaultSpec("lfd.nan", at_call=12)])):
            sup.run(3)
        faults = [e for e in sup.log.events if e["event"] == "fault"]
        assert [f["error"] for f in faults] == ["NumericalDivergenceError"]
        self._assert_matches(sim, ref)

    def test_device_oom(self, tmp_path):
        from repro.device import VirtualGPU

        sim = make_sim(device=VirtualGPU(), seed=7, **CHEAP)
        ref = make_sim(device=VirtualGPU(), seed=7, **CHEAP)
        ref.run(3)
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(checkpoint_every=1))
        # 2 handshake-staging allocations per MD step: arrival 2 = step 2.
        with armed(FaultPlan([FaultSpec("device.oom", at_call=2)])):
            sup.run(3)
        faults = [e for e in sup.log.events if e["event"] == "fault"]
        assert [f["error"] for f in faults] == ["DeviceMemoryError"]
        self._assert_matches(sim, ref)

    def test_corrupt_newest_falls_back_a_generation(self, tmp_path):
        sim = make_sim(seed=7, **CHEAP)
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(checkpoint_every=1))
        sup.run(2)
        newest = list_checkpoints(tmp_path)[-1]
        raw = bytearray(newest.read_bytes())
        raw[50] ^= 0xFF
        newest.write_bytes(bytes(raw))
        sup._restore()
        assert sim.step_count == 1  # previous generation
        assert sup.log.count("corrupt_checkpoint") == 1
        assert sup.log.count("restore") == 1

    def test_stale_future_generations_pruned(self, tmp_path):
        """A reused checkpoint dir must not let a recovery restore into a
        previous run's future."""
        old = make_sim(seed=3, **CHEAP)
        old_sup = RunSupervisor(
            old, tmp_path, SupervisorConfig(checkpoint_every=1)
        )
        old_sup.run(3)  # leaves generations up to step 3

        sim = make_sim(seed=7, **CHEAP)
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(checkpoint_every=1))
        with armed(FaultPlan([FaultSpec("qxmd.scf_diverge", at_call=0)])):
            sup.run(2)
        assert sup.log.count("stale_checkpoint") == 3
        # The recovery restored the fresh generation 0, not old step 3.
        restores = [e for e in sup.log.events if e["event"] == "restore"]
        assert [e["step"] for e in restores] == [0]
        assert sim.step_count == 2
        ref = make_sim(seed=7, **CHEAP)
        ref.run(2)
        self._assert_matches(sim, ref)

    def test_all_generations_corrupt_aborts(self, tmp_path):
        sim = make_sim(seed=7, **CHEAP)
        sup = RunSupervisor(sim, tmp_path, SupervisorConfig(checkpoint_every=1))
        sup.run(1)
        for path in list_checkpoints(tmp_path):
            raw = bytearray(path.read_bytes())
            raw[50] ^= 0xFF
            path.write_bytes(bytes(raw))
        with pytest.raises(SupervisorAbort, match="no usable checkpoint"):
            sup._restore()


class TestAbort:
    def test_persistent_fault_exhausts_retries(self, tmp_path):
        sim = make_sim(seed=7, **CHEAP)
        sup = RunSupervisor(
            sim, tmp_path, SupervisorConfig(checkpoint_every=1, max_retries=1)
        )
        plan = FaultPlan([FaultSpec("qxmd.scf_diverge", at_call=0, count=100)])
        with armed(plan):
            with pytest.raises(SupervisorAbort, match="failed 2 time"):
                sup.run(3)
        assert sup.log.count("fault") == 2
        assert sup.log.count("abort") == 1
        assert sup.total_retries == 2


class TestDegradation:
    def test_double_nqd_after_repeated_divergence(self, tmp_path):
        sim = make_sim(seed=7, **CHEAP)
        sup = RunSupervisor(
            sim,
            tmp_path,
            SupervisorConfig(
                checkpoint_every=1, degrade_mode="double_nqd", degrade_after=1
            ),
        )
        with armed(FaultPlan([FaultSpec("qxmd.scf_diverge", at_call=2)])):
            records = sup.run(3)
        assert sup.log.count("degrade") == 1
        assert sim.config.timescale.n_qd == 10  # doubled from 5
        assert sim.config.timescale.dt_md == 0.5  # unchanged
        assert len(records) == 3  # still completed the run

    def test_halve_dt_mode(self, tmp_path):
        sim = make_sim(seed=7, **CHEAP)
        sup = RunSupervisor(
            sim,
            tmp_path,
            SupervisorConfig(
                checkpoint_every=1, degrade_mode="halve_dt", degrade_after=1
            ),
        )
        with armed(FaultPlan([FaultSpec("qxmd.scf_diverge", at_call=2)])):
            sup.run(3)
        assert sim.config.timescale.dt_md == 0.25
        assert sim.config.timescale.n_qd == 5

    def test_degradation_skips_non_numerical_faults(self, tmp_path):
        from repro.device import VirtualGPU

        sim = make_sim(device=VirtualGPU(), seed=7, **CHEAP)
        sup = RunSupervisor(
            sim,
            tmp_path,
            SupervisorConfig(
                checkpoint_every=1, degrade_mode="halve_dt", degrade_after=1
            ),
        )
        with armed(FaultPlan([FaultSpec("device.oom", at_call=2)])):
            sup.run(3)
        assert sup.log.count("degrade") == 0
        assert sim.config.timescale.dt_md == 0.5


class TestAcceptanceScenario:
    def test_scf_plus_nan_plus_corrupt_checkpoint(self, tmp_path):
        """ISSUE acceptance: one SCF divergence, one NaN injection and a
        corrupted newest checkpoint, all in one supervised run, ending in
        the same final state as the fault-free trajectory."""
        ref = make_sim(seed=5)
        ref.excite_carrier(0)
        ref.run(6)

        sim = make_sim(seed=5)
        sim.excite_carrier(0)
        sup = RunSupervisor(
            sim,
            tmp_path,
            SupervisorConfig(
                checkpoint_every=2,
                max_retries=3,
                log_path=tmp_path / "events.jsonl",
            ),
        )
        plan = FaultPlan([
            # Corrupts the step-2 generation as it is published.
            FaultSpec("checkpoint.corrupt", at_call=1),
            # 2 scf arrivals/step: arrival 4 diverges step 3, forcing the
            # restore to skip the corrupt newest generation.
            FaultSpec("qxmd.scf_diverge", at_call=4),
            # 40 lfd arrivals/step: fires mid step 5, after recovery.
            FaultSpec("lfd.nan", at_call=250),
        ])
        with armed(plan):
            records = sup.run(6)

        kinds = [e["event"] for e in sup.log.events]
        assert sup.log.count("fault") == 2
        assert sup.log.count("recovered") == 2
        assert sup.log.count("corrupt_checkpoint") >= 1
        # The corrupt generation was detected during the first recovery.
        assert kinds.index("corrupt_checkpoint") < kinds.index("restore")
        assert plan.fired  # every armed window actually fired
        assert {site for site, _ in plan.fired} == {
            "checkpoint.corrupt", "qxmd.scf_diverge", "lfd.nan"
        }

        # Exact -- not approximate -- match with the fault-free run.
        assert [r.step for r in records] == [1, 2, 3, 4, 5, 6]
        assert np.array_equal(sim.md_state.positions, ref.md_state.positions)
        assert np.array_equal(sim.md_state.velocities, ref.md_state.velocities)
        for a, b in zip(sim.dc.states, ref.dc.states):
            assert np.array_equal(a.occupations, b.occupations)

        # The JSON-lines event log mirrors the in-memory events.
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert [json.loads(l)["event"] for l in lines] == kinds


class TestCLI:
    def test_supervised_run_flags(self, tmp_path, capsys):
        from repro.cli import main

        ckpt_dir = tmp_path / "ckpts"
        log = tmp_path / "events.jsonl"
        code = main([
            "run", "--steps", "2", "--n-qd", "5", "--dt-md", "0.5",
            "--checkpoint-every", "1", "--max-retries", "2",
            "--checkpoint-dir", str(ckpt_dir),
            "--resilience-log", str(log),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "supervised run" in out
        assert "resilience: 0 fault(s)" in out
        assert list_checkpoints(ckpt_dir)
        events = [json.loads(l) for l in log.read_text().splitlines()]
        # A fault-free run logs only the active-tuning-profile stamp
        # (written at run start for resume provenance) and checkpoints.
        assert {e["event"] for e in events} == {"tuning_profile", "checkpoint"}
        assert sum(e["event"] == "checkpoint" for e in events) == len(events) - 1

    def test_unsupervised_by_default(self, capsys):
        from repro.cli import main

        assert main(["run", "--steps", "1", "--n-qd", "5"]) == 0
        out = capsys.readouterr().out
        assert "resilience" not in out
