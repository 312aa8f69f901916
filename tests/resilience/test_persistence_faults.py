"""Torn-write / ENOSPC hardening of every persistence path.

Three subsystems persist state -- checkpoint rotation (mesh and
ensemble runs), tuning cache, resilience event log -- and each must
survive a disk that fills up or a writer that dies mid-write: the
previous artifact stays intact on ENOSPC, a torn artifact is detected
and degraded past on readback, and no path ever crashes the run over
lost telemetry.
"""

from __future__ import annotations

import errno
import hashlib
import json

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.mesh import DCMESHConfig, DCMESHSimulation
from repro.core.timescale import TimescaleSplit
from repro.ensemble import EnsembleConfig, EnsembleRun, model_path
from repro.grids.grid import Grid3D
from repro.pseudo.elements import get_species
from repro.resilience.atomicio import (
    atomic_write_bytes,
    atomic_write_text,
    read_npz,
    write_npz,
)
from repro.resilience.checkpointing import (
    CheckpointCorruptError,
    list_checkpoints,
    restore_newest_verified,
    sidecar_path,
    verify_checkpoint,
    write_checkpoint,
)
from repro.resilience.faults import FaultPlan, FaultSpec, armed, disarm
from repro.resilience.supervisor import ResilienceLog, read_event_log
from repro.tuning.cache import TuningCache
from repro.tuning.registry import default_registry


@pytest.fixture(autouse=True)
def _always_disarmed():
    disarm()
    yield
    disarm()


def _make_sim() -> DCMESHSimulation:
    grid = Grid3D((12, 12, 12), (0.6,) * 3)
    L = grid.lengths[0]
    positions = np.array([[L / 4, L / 2, L / 2], [3 * L / 4, L / 2, L / 2]])
    species = [get_species("H"), get_species("H")]
    config = DCMESHConfig(
        timescale=TimescaleSplit(dt_md=2.0, n_qd=4),
        nscf=1, ncg=1, norb_extra=1, seed=42,
    )
    return DCMESHSimulation(
        grid, (2, 1, 1), positions, species,
        config=config, buffer_width=2,
    )


def _make_ensemble() -> EnsembleRun:
    path = model_path(nsteps=8, nstates=3, dt=1.0, seed=5, coupling=0.1)
    return EnsembleRun.from_config(
        path, EnsembleConfig(ntraj=8, seed=6, batch_size=4), round_size=1,
    )


@pytest.fixture(params=["mesh", "ensemble"])
def make_run(request):
    """Factory of fresh, identically configured runs of one type."""
    factory = {"mesh": _make_sim, "ensemble": _make_ensemble}[request.param]
    made = []

    def make():
        made.append(factory())
        return made[-1]

    yield make
    for run in made:
        if isinstance(run, EnsembleRun):
            run.close()


class TestAtomicIO:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_enospc_leaves_previous_bytes_intact(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write_text(path, "good", fault_prefix="cache")
        plan = FaultPlan([FaultSpec("cache.enospc", at_call=0)])
        with armed(plan):
            with pytest.raises(OSError) as ei:
                atomic_write_text(path, "never-lands", fault_prefix="cache")
        assert ei.value.errno == errno.ENOSPC
        assert path.read_text() == "good"
        assert list(tmp_path.iterdir()) == [path]

    def test_torn_write_truncates_payload(self, tmp_path):
        path = tmp_path / "f.bin"
        plan = FaultPlan([FaultSpec("cache.torn_write", at_call=0,
                                    payload={"keep_fraction": 0.25})])
        with armed(plan):
            atomic_write_bytes(path, b"x" * 100, fault_prefix="cache")
        assert path.read_bytes() == b"x" * 25

    def test_real_write_failure_cleans_temp(self, tmp_path, monkeypatch):
        """A genuine mid-write failure removes the temp and re-raises."""
        import os as os_mod

        path = tmp_path / "f.json"
        atomic_write_text(path, "good")
        real_fsync = os_mod.fsync

        def dying_fsync(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.resilience.atomicio.os.fsync", dying_fsync)
        with pytest.raises(OSError):
            atomic_write_text(path, "torn")
        monkeypatch.setattr("repro.resilience.atomicio.os.fsync", real_fsync)
        assert path.read_text() == "good"
        assert list(tmp_path.iterdir()) == [path]

    def test_npz_round_trip(self, tmp_path):
        arrays = {
            "z": np.arange(6, dtype=np.complex128).reshape(2, 3) * (1 + 2j),
            "mask": np.array([True, False, True]),
            "n": np.arange(4, dtype=np.int64),
        }
        write_npz(tmp_path / "a.npz", arrays, {})
        got, meta = read_npz(tmp_path / "a.npz")
        assert meta == {}
        assert sorted(got) == sorted(arrays)
        for name, want in arrays.items():
            assert got[name].dtype == want.dtype
            assert np.array_equal(got[name], want)

    def test_npz_reserved_member_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="__meta__"):
            write_npz(tmp_path / "a.npz", {"__meta__": np.zeros(2)}, {})
        assert list(tmp_path.iterdir()) == []

    def test_npz_digest_matches_file(self, tmp_path):
        path = tmp_path / "a.npz"
        digest, nbytes = write_npz(path, {"x": np.ones(5)}, {"k": 1})
        data = path.read_bytes()
        assert digest == hashlib.sha256(data).hexdigest()
        assert nbytes == len(data)

    def test_archive_without_meta_refused(self, make_run, tmp_path):
        """A pre-``__meta__`` checkpoint (metadata under ``meta``) of
        either run type is refused before anything is applied."""
        run = make_run()
        arrays, meta = run.checkpoint_state()
        legacy = tmp_path / "legacy.npz"
        np.savez(legacy, meta=np.frombuffer(json.dumps(meta).encode(),
                                            dtype=np.uint8), **arrays)
        victim = make_run()
        victim.md_step()
        before, _ = victim.checkpoint_state()
        before = {k: v.copy() for k, v in before.items()}
        with pytest.raises(ValueError, match="__meta__"):
            victim.restore_state(*read_npz(legacy))
        after, _ = victim.checkpoint_state()
        assert victim.step_count == 1
        for name, want in before.items():
            assert np.array_equal(after[name], want)


class TestCheckpointFaults:
    def test_enospc_preserves_previous_generations(self, make_run, tmp_path):
        sim = make_run()
        first = write_checkpoint(sim, tmp_path)
        sim.md_step()
        plan = FaultPlan([FaultSpec("checkpoint.enospc", at_call=0)])
        with armed(plan):
            with pytest.raises(OSError) as ei:
                write_checkpoint(sim, tmp_path)
        assert ei.value.errno == errno.ENOSPC
        assert list_checkpoints(tmp_path) == [first]
        verify_checkpoint(first)  # previous generation still pristine
        assert not list(tmp_path.glob(".tmp-*"))

    @staticmethod
    def _check_torn_archive_fails_verification(run, tmp_path):
        plan = FaultPlan([FaultSpec("checkpoint.torn_write", at_call=0,
                                    payload={"keep_fraction": 0.5})])
        with armed(plan):
            path = write_checkpoint(run, tmp_path)
        meta = json.loads(sidecar_path(path).read_text())
        assert path.stat().st_size < meta["nbytes"]  # really torn
        with pytest.raises(CheckpointCorruptError):
            verify_checkpoint(path)

    def test_torn_archive_fails_verification(self, tmp_path):
        self._check_torn_archive_fails_verification(_make_sim(), tmp_path)

    def test_torn_ensemble_archive_fails_verification(self, tmp_path):
        run = _make_ensemble()
        try:
            self._check_torn_archive_fails_verification(run, tmp_path)
        finally:
            run.close()

    def test_restore_falls_back_past_torn_generation(self, make_run, tmp_path):
        """The newest generation tears; restore degrades to the previous."""
        sim = make_run()
        good = write_checkpoint(sim, tmp_path)
        good_step = sim.step_count
        sim.md_step()
        plan = FaultPlan([FaultSpec("checkpoint.torn_write", at_call=0)])
        with armed(plan):
            torn = write_checkpoint(sim, tmp_path)

        fresh = make_run()
        path, meta, skipped = restore_newest_verified(fresh, tmp_path)
        assert path == good
        assert skipped == [torn]
        assert fresh.step_count == good_step
        assert meta["step"] == good_step

    def test_restore_raises_when_all_generations_torn(self, make_run, tmp_path):
        sim = make_run()
        plan = FaultPlan([FaultSpec("checkpoint.torn_write", at_call=0,
                                    count=10)])
        with armed(plan):
            write_checkpoint(sim, tmp_path)
        with pytest.raises(CheckpointCorruptError, match="no usable"):
            restore_newest_verified(make_run(), tmp_path)

    def test_mid_write_kill_leaves_rotation_loadable(self, make_run, tmp_path):
        """A .tmp- file from a killed writer is invisible to the rotation."""
        sim = make_run()
        good = write_checkpoint(sim, tmp_path)
        litter = tmp_path / ".tmp-ckpt-00000099.npz"
        litter.write_bytes(b"half a checkpoint")
        assert list_checkpoints(tmp_path) == [good]
        fresh = make_run()
        path, _, skipped = restore_newest_verified(fresh, tmp_path)
        assert path == good
        assert skipped == []

    def test_save_checkpoint_enospc_keeps_old_file(self, tmp_path):
        """``save_checkpoint`` over an existing file: a full disk leaves
        the previous bytes intact and no temp litter behind."""
        sim = _make_sim()
        path = save_checkpoint(sim, tmp_path / "state.npz")
        before = path.read_bytes()
        sim.md_step()
        plan = FaultPlan([FaultSpec("checkpoint.enospc", at_call=0)])
        with armed(plan):
            with pytest.raises(OSError) as ei:
                save_checkpoint(sim, path)
        assert ei.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        fresh = _make_sim()
        load_checkpoint(fresh, path)
        assert fresh.step_count == 0


class TestTuningCacheFaults:
    def _tunable(self):
        reg = default_registry()
        return reg.get(reg.ids()[0])

    def _populate(self, cache):
        t = self._tunable()
        cache.put(t, t.canonical_defaults(), speedup=1.5,
                  strategy="exhaustive", gate_error=0.0)

    def test_enospc_leaves_previous_cache_intact(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuningCache(path)
        self._populate(cache)
        cache.save()
        before = path.read_bytes()

        plan = FaultPlan([FaultSpec("cache.enospc", at_call=0)])
        with armed(plan):
            with pytest.raises(OSError) as ei:
                cache.save()
        assert ei.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert TuningCache(path).load_error is None  # still loads clean

    def test_torn_cache_degrades_to_empty_and_heals(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuningCache(path)
        self._populate(cache)
        plan = FaultPlan([FaultSpec("cache.torn_write", at_call=0)])
        with armed(plan):
            cache.save()  # publishes truncated JSON

        reloaded = TuningCache(path)
        assert reloaded.load_error is not None  # corruption surfaced
        assert len(reloaded) == 0  # treated as missing -> re-tune
        self._populate(reloaded)
        reloaded.save()  # next save heals the file
        healed = TuningCache(path)
        assert healed.load_error is None
        assert len(healed) == 1

    def test_session_survives_cache_enospc(self, tmp_path):
        """A full disk voids persistence, never the tuning that ran."""
        from repro.tuning.session import TuningSession

        cache = TuningCache(tmp_path / "cache.json")
        session = TuningSession(cache=cache)
        tid = default_registry().ids()[0]
        plan = FaultPlan([FaultSpec("cache.enospc", at_call=0, count=10)])
        with armed(plan):
            result = session.run(select=[tid], repeats=1)
        assert result.cache_save_error is not None
        assert "ENOSPC" in result.cache_save_error or \
            "No space left" in result.cache_save_error
        assert result.tuned == 1  # the winner still applied in-process
        assert not (tmp_path / "cache.json").exists()


class TestEventLogFaults:
    def test_enospc_disables_mirror_keeps_memory(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = ResilienceLog(path)
        log.record("checkpoint", step=1)
        plan = FaultPlan([FaultSpec("eventlog.enospc", at_call=0)])
        with armed(plan):
            log.record("fault", step=2)  # mirror write fails
        log.record("restore", step=2)  # mirroring now off, still recorded

        kinds = [e["event"] for e in log.events]
        assert kinds == ["checkpoint", "fault", "log_write_failed", "restore"]
        assert log.count("log_write_failed") == 1
        # The file holds only what landed before the disk filled.
        on_disk = read_event_log(path)
        assert [e["event"] for e in on_disk] == ["checkpoint"]

    def test_torn_line_skipped_on_readback(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = ResilienceLog(path)
        log.record("checkpoint", step=1)
        plan = FaultPlan([FaultSpec("eventlog.torn_write", at_call=0)])
        with armed(plan):
            log.record("fault", step=2)  # line torn mid-append
        log.record("restore", step=2)

        events = read_event_log(path)
        kinds = [e["event"] for e in events]
        # The torn "fault" line (and the "restore" line glued onto its
        # tail) fail to decode; the intact prefix survives.
        assert "checkpoint" in kinds
        assert len(events) < 3
        # In-memory record is complete regardless.
        assert [e["event"] for e in log.events] == \
            ["checkpoint", "fault", "restore"]

    def test_read_event_log_missing_file(self, tmp_path):
        assert read_event_log(tmp_path / "absent.jsonl") == []
