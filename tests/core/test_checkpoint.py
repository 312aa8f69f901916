"""Checkpoint/restart tests: restarted trajectories are identical."""

import numpy as np
import pytest

from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.atomicio import read_npz, write_npz
from repro.tuning import TuningProfile, set_active_profile

from tests.core.test_mesh import make_sim


class TestRoundtrip:
    def test_restart_continues_identically(self, tmp_path):
        """Run 4 steps straight vs 2 + checkpoint + 2: identical."""
        ref = make_sim(seed=5)
        ref.excite_carrier(0)
        ref.run(2)
        ckpt = tmp_path / "state.npz"

        work = make_sim(seed=5)
        work.excite_carrier(0)
        work.run(2)
        save_checkpoint(work, ckpt)

        ref.run(2)  # straight-through reference

        resumed = make_sim(seed=5)
        load_checkpoint(resumed, ckpt)
        resumed.run(2)

        assert np.array_equal(resumed.md_state.positions, ref.md_state.positions)
        assert np.array_equal(resumed.md_state.velocities, ref.md_state.velocities)
        assert resumed.time == pytest.approx(ref.time)
        for a, b in zip(resumed.dc.states, ref.dc.states):
            assert np.allclose(a.occupations, b.occupations)

    def test_state_fields_restored(self, tmp_path):
        sim = make_sim(seed=9)
        sim.excite_carrier(0)
        sim.run(1)
        ckpt = save_checkpoint(sim, tmp_path / "s.npz")

        fresh = make_sim(seed=9)
        load_checkpoint(fresh, ckpt)
        assert fresh.step_count == 1
        assert fresh.time == pytest.approx(sim.time)
        assert 0 in fresh.carriers
        assert fresh.carriers[0][0].active == sim.carriers[0][0].active
        assert np.array_equal(
            fresh.dc.states[0].wf.psi, sim.dc.states[0].wf.psi
        )

    def test_rng_state_restored(self, tmp_path):
        sim = make_sim(seed=2)
        sim.run(1)
        ckpt = save_checkpoint(sim, tmp_path / "s.npz")
        draw_ref = sim.rng.random()

        fresh = make_sim(seed=2)
        fresh.rng.random()  # desynchronize on purpose
        load_checkpoint(fresh, ckpt)
        assert fresh.rng.random() == draw_ref


class TestParentFormat:
    def test_checkpoint_with_array_backend_resumes_identically(self, tmp_path):
        """A checkpoint in the format written while the kernels had an
        array-API substrate axis: an ``array_backend`` meta key and
        ``backend`` keys in the embedded tuning profile.  It loads, and
        the run continues bit for bit."""
        ref = make_sim(seed=5)
        ref.excite_carrier(0)
        ref.run(3)

        work = make_sim(seed=5)
        work.excite_carrier(0)
        work.run(1)
        arrays, meta = work.checkpoint_state()
        meta["array_backend"] = "numpy"
        meta["tuning_profile"] = {
            "source": "defaults+array-backend",
            "overrides": {
                "lfd.kin_prop": {"variant": "gemm", "block_size": 32,
                                 "backend": "numpy"},
                "lfd.nonlocal": {"variant": "blas", "orb_block": 16,
                                 "backend": "numpy"},
                "multigrid.poisson": {"smoother": "rbgs", "pre_sweeps": 2,
                                      "post_sweeps": 2, "backend": "numpy"},
            },
        }
        ckpt = tmp_path / "parent.npz"
        write_npz(ckpt, arrays, meta)

        resumed = make_sim(seed=5)
        try:
            load_checkpoint(resumed, ckpt)
            resumed.run(2)
        finally:
            set_active_profile(TuningProfile.default())
        assert np.array_equal(resumed.md_state.positions,
                              ref.md_state.positions)
        assert np.array_equal(resumed.md_state.velocities,
                              ref.md_state.velocities)
        for a, b in zip(resumed.dc.states, ref.dc.states):
            assert np.array_equal(a.occupations, b.occupations)


class TestValidation:
    def test_atom_count_mismatch(self, tmp_path):
        sim = make_sim()
        ckpt = save_checkpoint(sim, tmp_path / "s.npz")
        other = make_sim()
        other.md_state.positions = np.zeros((3, 3))
        with pytest.raises(ValueError, match="atom count"):
            load_checkpoint(other, ckpt)

    def test_domain_count_mismatch(self, tmp_path, monkeypatch):
        sim = make_sim()
        ckpt = save_checkpoint(sim, tmp_path / "s.npz")
        other = make_sim()
        other.dc.states.pop()
        with pytest.raises(ValueError, match="domains"):
            load_checkpoint(other, ckpt)

    def test_file_is_npz_archive(self, tmp_path):
        sim = make_sim()
        ckpt = save_checkpoint(sim, tmp_path / "s.npz")
        assert ckpt.exists()
        assert ckpt.stat().st_size > 0
        arrays, meta = read_npz(ckpt)
        assert "positions" in arrays
        assert meta["version"] == CHECKPOINT_VERSION
