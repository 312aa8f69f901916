"""Checkpoints carry the active tuning profile; resumes replay it."""

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.atomicio import read_npz, write_npz
from repro.tuning.profile import (
    TuningProfile,
    active_profile,
    get_active_profile,
    set_active_profile,
)

from tests.core.test_mesh import make_sim


class TestCheckpointProfile:
    def test_save_records_active_profile(self, tmp_path):
        sim = make_sim(seed=3)
        sim.run(1)
        profile = TuningProfile({"lfd.nonlocal": {"variant": "naive"}},
                                source="test")
        with active_profile(profile):
            path = save_checkpoint(sim, tmp_path / "s.npz")
        _, meta = read_npz(path)
        assert meta["tuning_profile"]["source"] == "test"
        assert meta["tuning_profile"]["overrides"] == {
            "lfd.nonlocal": dict(profile.params_for("lfd.nonlocal"))
        }

    def test_load_restores_the_saved_profile(self, tmp_path):
        sim = make_sim(seed=3)
        sim.run(1)
        tuned = TuningProfile({"multigrid.poisson": {"pre_sweeps": 3}})
        with active_profile(tuned):
            path = save_checkpoint(sim, tmp_path / "s.npz")

        before = get_active_profile()
        try:
            fresh = make_sim(seed=3)
            load_checkpoint(fresh, path)
            restored = get_active_profile()
            assert restored == tuned
            assert restored.params_for(
                "multigrid.poisson")["pre_sweeps"] == 3
        finally:
            set_active_profile(before)

    def test_pre_tuning_checkpoint_leaves_profile_alone(self, tmp_path):
        # Simulate a checkpoint written before the tuning subsystem
        # existed: strip the key from meta and rewrite the archive.
        sim = make_sim(seed=4)
        sim.run(1)
        path = save_checkpoint(sim, tmp_path / "s.npz")
        arrays, meta = read_npz(path)
        meta.pop("tuning_profile")
        write_npz(path, arrays, meta)

        marker = TuningProfile({"lfd.kin_prop": {"block_size": 16}})
        before = get_active_profile()
        set_active_profile(marker)
        try:
            fresh = make_sim(seed=4)
            load_checkpoint(fresh, path)
            assert get_active_profile() is marker
        finally:
            set_active_profile(before)

    def test_supervisor_logs_active_profile(self, tmp_path):
        from repro.resilience.supervisor import (
            RunSupervisor,
            SupervisorConfig,
        )

        sim = make_sim(seed=5)
        sup = RunSupervisor(
            sim, tmp_path / "ckpts",
            SupervisorConfig(checkpoint_every=1, max_retries=1),
        )
        with active_profile(TuningProfile(
                {"lfd.nonlocal": {"variant": "naive"}}, source="sup-test")):
            sup.run(1)
        events = [e for e in sup.log.events
                  if e["event"] == "tuning_profile"]
        assert len(events) == 1
        assert events[0]["source"] == "sup-test"
        assert events[0]["tuned"] == ["lfd.nonlocal"]
