"""Coalescing correctness: stacked members are bitwise-equal to solo runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ensemble import (
    EnsembleConfig,
    EnsembleMember,
    EnsembleRun,
    engine,
    model_path,
    pack_segments,
    run_ensemble,
)
from repro.parallel.executor import chunk_slices
from repro.qxmd.sh_kernels import HopPolicy
from repro.resilience.atomicio import read_npz, write_npz
from repro.resilience.checkpointing import CheckpointCorruptError
from repro.serve.coalesce import run_group_supervised

PATH = model_path(nsteps=12, nstates=4, dt=1.0, seed=11, coupling=0.12)
POLICY = HopPolicy()


def solo(ntraj, seed, istate, batch_size=4):
    return run_ensemble(
        PATH,
        EnsembleConfig(ntraj=ntraj, seed=seed, istate=istate,
                       batch_size=batch_size),
    )


class TestPackSegments:
    def test_small_jobs_share_a_task(self):
        members = [EnsembleMember(3, 1, 10), EnsembleMember(3, 2, 20)]
        tasks = pack_segments(members, batch_size=8)
        assert len(tasks) == 1
        assert [(s.lo, s.hi, s.local_lo) for s in tasks[0]] == [
            (0, 3, 0), (3, 6, 0)
        ]

    def test_wide_job_splits_with_local_offsets(self):
        tasks = pack_segments([EnsembleMember(10, 0, 5)], batch_size=4)
        assert [(s.lo, s.hi, s.local_lo) for t in tasks for s in t] == [
            (0, 4, 0), (4, 8, 4), (8, 10, 8)
        ]

    def test_mixed_fill(self):
        members = [EnsembleMember(3, 0, 1), EnsembleMember(6, 1, 2)]
        tasks = pack_segments(members, batch_size=4)
        # task 0: [3 rows of m0][1 row of m1]; task 1: 4 rows; task 2: 1.
        assert [sum(s.hi - s.lo for s in t) for t in tasks] == [4, 4, 1]
        first = tasks[0]
        assert first[0].seed == 1 and first[1].seed == 2
        assert first[1].local_lo == 0 and tasks[1][0].local_lo == 1

    def test_total_rows_conserved(self):
        members = [EnsembleMember(n, 0, n) for n in (1, 7, 4, 9)]
        tasks = pack_segments(members, batch_size=5)
        rows = sorted(
            (s.seed, s.local_lo + i)
            for t in tasks for s in t for i in range(s.hi - s.lo)
        )
        want = sorted((m.seed, i) for m in members for i in range(m.ntraj))
        assert rows == want

    def test_one_member_is_chunk_slices(self):
        for ntraj, batch_size in ((10, 4), (8, 8), (3, 5), (1, 1)):
            tasks = pack_segments([EnsembleMember(ntraj, 0, 5)], batch_size)
            assert all(len(t) == 1 for t in tasks)
            assert [(t[0].lo, t[0].hi) for t in tasks] == \
                chunk_slices(ntraj, batch_size)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            pack_segments([EnsembleMember(2, 0, 1)], batch_size=0)


def assert_member_matches_solo(member_result, solo_result):
    """Bitwise equality of every trace a coalesced member hands back."""
    assert np.array_equal(member_result.hops, solo_result.hops)
    assert np.array_equal(member_result.final_active,
                          solo_result.final_active)
    assert np.array_equal(member_result.stats.pop_mean,
                          solo_result.stats.pop_mean)
    assert np.array_equal(member_result.stats.pop_stderr,
                          solo_result.stats.pop_stderr)
    assert np.array_equal(member_result.stats.active_fraction,
                          solo_result.stats.active_fraction)


class TestGroupEquivalence:
    def test_mixed_members_bitwise_equal_to_solo_runs(self):
        """The coalescing contract: stacking jobs with different seeds,
        widths and initial states changes nothing about any one job."""
        members = [
            EnsembleMember(ntraj=6, istate=3, seed=101),
            EnsembleMember(ntraj=3, istate=1, seed=202),
            EnsembleMember(ntraj=5, istate=3, seed=303),
        ]
        group = EnsembleRun(PATH, members, POLICY, batch_size=4)
        results = group.run()
        for member, res in zip(members, results):
            assert_member_matches_solo(
                res, solo(member.ntraj, member.seed, member.istate)
            )

    def test_batch_size_invariance_of_the_group_itself(self):
        members = [EnsembleMember(4, 2, 7), EnsembleMember(4, 0, 9)]
        wide = EnsembleRun(PATH, members, POLICY, batch_size=8).run()
        narrow = EnsembleRun(PATH, members, POLICY, batch_size=3).run()
        for a, b in zip(wide, narrow):
            assert np.array_equal(a.populations, b.populations)
            assert np.array_equal(a.hops, b.hops)
            assert np.array_equal(a.final_amplitudes, b.final_amplitudes)

    def test_istate_validated_against_path(self):
        with pytest.raises(ValueError, match="istate"):
            EnsembleRun(PATH, [EnsembleMember(2, 9, 1)], POLICY)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            EnsembleRun(PATH, [], POLICY)

    def test_results_before_completion_rejected(self):
        group = EnsembleRun(
            PATH, [EnsembleMember(4, 0, 1)], POLICY, batch_size=2
        )
        with pytest.raises(RuntimeError, match="incomplete"):
            group.results()


class TestRounds:
    def test_round_records(self):
        group = EnsembleRun(
            PATH, [EnsembleMember(8, 0, 5)], POLICY,
            batch_size=2, round_size=3,
        )
        assert len(group.batches) == 4
        assert group.rounds_remaining == 2
        rec = group.md_step()
        assert (rec.step, rec.batches_run, rec.batches_done) == (1, 3, 3)
        rec = group.md_step()
        assert (rec.batches_run, rec.batches_done,
                rec.batches_total) == (1, 4, 4)
        assert group.complete
        assert group.rounds_remaining == 0


class TestCheckpoint:
    def make_group(self, **kw):
        members = [EnsembleMember(4, 3, 7), EnsembleMember(2, 1, 8)]
        return EnsembleRun(PATH, members, POLICY, batch_size=2,
                                round_size=1, **kw)

    def test_round_trip_resumes_bitwise(self, tmp_path):
        ckpt = tmp_path / "group.npz"
        half = self.make_group()
        half.md_step()
        write_npz(ckpt, *half.checkpoint_state())

        resumed = self.make_group()
        resumed.restore_state(*read_npz(ckpt))
        assert resumed.step_count == 1
        assert np.array_equal(resumed.done, half.done)
        results = resumed.run()

        straight = self.make_group().run()
        for a, b in zip(results, straight):
            assert np.array_equal(a.populations, b.populations)
            assert np.array_equal(a.hops, b.hops)

    def test_fingerprint_mismatch_detected(self, tmp_path):
        ckpt = tmp_path / "group.npz"
        write_npz(ckpt, *self.make_group().checkpoint_state())
        other = EnsembleRun(
            PATH, [EnsembleMember(4, 3, 7), EnsembleMember(2, 1, 9)],
            POLICY, batch_size=2,
        )
        with pytest.raises(CheckpointCorruptError, match="fingerprint"):
            other.restore_state(*read_npz(ckpt))

    def test_old_version_checkpoint_refused(self, tmp_path, monkeypatch):
        """A checkpoint of the previous schema version -- the former
        group schema, whose fingerprint payload differs only in the
        version tag -- is refused instead of spliced into the run."""
        ckpt = tmp_path / "group.npz"
        current = engine.ENSEMBLE_CKPT_VERSION
        monkeypatch.setattr(engine, "ENSEMBLE_CKPT_VERSION", current - 1)
        half = self.make_group()
        half.md_step()
        write_npz(ckpt, *half.checkpoint_state())
        monkeypatch.setattr(engine, "ENSEMBLE_CKPT_VERSION", current)
        with pytest.raises(CheckpointCorruptError, match="fingerprint"):
            self.make_group().restore_state(*read_npz(ckpt))

    def test_supervised_group_equals_unsupervised(self, tmp_path):
        members = [EnsembleMember(5, 2, 31), EnsembleMember(3, 0, 32)]
        group = EnsembleRun(PATH, members, POLICY, batch_size=3)
        supervised = run_group_supervised(group, tmp_path / "ck")
        plain = EnsembleRun(PATH, members, POLICY, batch_size=3).run()
        for a, b in zip(supervised, plain):
            assert np.array_equal(a.populations, b.populations)
            assert np.array_equal(a.final_active, b.final_active)
        for member, res in zip(members, supervised):
            assert_member_matches_solo(
                res, solo(member.ntraj, member.seed, member.istate,
                          batch_size=3)
            )
