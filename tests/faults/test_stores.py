"""Fault seams for persistence and sinks, and the resilience they probe."""

import pytest

from repro.core.errors import FaultError, PersistenceError
from repro.core.persistence import QUARANTINE_SUFFIX, TargetStore
from repro.faults.stores import FlakySink, FlakyTargetStore, corrupt_target_file
from repro.obs.sinks import MemorySink
from repro.obs.telemetry import Telemetry

STATE = {"sets": {"0": {"arity": 1, "calibration": {"rate": 100.0}}}}


class TestFlakyTargetStore:
    def test_retry_then_succeed(self, tmp_path):
        sleeps = []
        store = FlakyTargetStore(
            tmp_path, save_retries=2, save_backoff=0.05, sleep=sleeps.append
        )
        store.fail_next(1)
        path = store.save("app", STATE)
        assert path.exists()
        assert store.save_failures == 1
        assert store.write_attempts == 2
        assert sleeps == [0.05]
        assert store.load("app") == STATE

    def test_backoff_doubles(self, tmp_path):
        sleeps = []
        store = FlakyTargetStore(
            tmp_path, save_retries=3, save_backoff=0.1, sleep=sleeps.append
        )
        store.fail_next(3)
        store.save("app", STATE)
        assert sleeps == pytest.approx([0.1, 0.2, 0.4])

    def test_exhausted_retries_raise(self, tmp_path):
        store = FlakyTargetStore(
            tmp_path, save_retries=1, save_backoff=0.0, sleep=lambda s: None
        )
        store.fail_next(5)
        with pytest.raises(PersistenceError):
            store.save("app", STATE)
        assert store.save_failures == 2  # first attempt + one retry

    def test_failure_leaves_previous_file_intact(self, tmp_path):
        store = FlakyTargetStore(
            tmp_path, save_retries=0, sleep=lambda s: None
        )
        store.save("app", {"v": 1})
        store.fail_next(1)
        with pytest.raises(PersistenceError):
            store.save("app", {"v": 2})
        assert store.load("app") == {"v": 1}

    def test_save_failures_emit_telemetry(self, tmp_path):
        memory = MemorySink()
        store = FlakyTargetStore(
            tmp_path,
            save_retries=1,
            save_backoff=0.0,
            sleep=lambda s: None,
            telemetry=Telemetry(sink=memory),
        )
        store.fail_next(1)
        store.save("app", STATE)
        kinds = [e.kind for e in memory.events]
        assert "anomaly" in kinds
        assert "recovery" in kinds

    def test_bad_fail_count_rejected(self, tmp_path):
        with pytest.raises(FaultError):
            FlakyTargetStore(tmp_path).fail_next(0)


class TestCorruptAndQuarantine:
    @pytest.mark.parametrize("mode", ["torn", "garbage", "bad_version"])
    def test_corruption_quarantined_on_lenient_load(self, tmp_path, mode):
        store = TargetStore(tmp_path, strict=False)
        store.save("app", STATE)
        corrupt_target_file(store, "app", mode=mode)
        assert store.load("app") is None
        quarantine = store.quarantine_path_for("app")
        assert quarantine.exists()
        assert quarantine.name.endswith(QUARANTINE_SUFFIX)
        assert store.quarantined == [quarantine]
        assert not store.path_for("app").exists()

    def test_corruption_raises_on_strict_load(self, tmp_path):
        store = TargetStore(tmp_path)
        store.save("app", STATE)
        corrupt_target_file(store, "app", mode="torn")
        with pytest.raises(PersistenceError):
            store.load("app")
        assert not store.quarantine_path_for("app").exists()

    def test_per_call_strict_override(self, tmp_path):
        store = TargetStore(tmp_path, strict=True)
        store.save("app", STATE)
        corrupt_target_file(store, "app", mode="garbage")
        assert store.load("app", strict=False) is None
        assert store.quarantined

    def test_quarantine_emits_telemetry(self, tmp_path):
        memory = MemorySink()
        store = TargetStore(
            tmp_path, strict=False, telemetry=Telemetry(sink=memory)
        )
        store.save("app", STATE)
        corrupt_target_file(store, "app", mode="torn")
        store.load("app")
        anomalies = [e for e in memory.events if e.kind == "anomaly"]
        recoveries = [e for e in memory.events if e.kind == "recovery"]
        assert anomalies and anomalies[0].anomaly == "corrupt_target"
        assert recoveries and recoveries[0].action == "quarantine"

    def test_save_after_quarantine_rebuilds(self, tmp_path):
        store = TargetStore(tmp_path, strict=False)
        store.save("app", STATE)
        corrupt_target_file(store, "app", mode="torn")
        assert store.load("app") is None
        store.save("app", {"fresh": True})
        assert store.load("app") == {"fresh": True}

    def test_missing_file_rejected(self, tmp_path):
        store = TargetStore(tmp_path)
        with pytest.raises(FaultError):
            corrupt_target_file(store, "nothing")

    def test_unknown_mode_rejected(self, tmp_path):
        store = TargetStore(tmp_path)
        store.save("app", STATE)
        with pytest.raises(FaultError):
            corrupt_target_file(store, "app", mode="gremlins")


class TestFlakySink:
    def test_raises_after_threshold(self):
        sink = FlakySink(fail_after=2)
        sink.emit(object())
        sink.emit(object())
        with pytest.raises(RuntimeError):
            sink.emit(object())
        assert sink.emitted == 2
        assert sink.raised == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(FaultError):
            FlakySink(fail_after=-1)


class TestInterleavedFaults:
    """Interleaved save/load under injected disk faults and corruption.

    The invariant under audit: a lenient load always returns either the
    last successfully saved state or ``None`` right after a corruption
    was quarantined — never a stale resurrection, never an exception —
    and neither a failed save nor a quarantine ever destroys the last
    good snapshot that preceded it.
    """

    def test_interleaving_preserves_last_good_snapshot(self, tmp_path):
        import random

        rng = random.Random(20260808)
        store = FlakyTargetStore(
            tmp_path,
            strict=False,
            save_retries=1,
            save_backoff=0.0,
            sleep=lambda s: None,
        )
        expected = None  # what a lenient load must return right now
        last_good = None  # newest state a save fully committed
        for step in range(160):
            op = rng.choice(("save", "flaky_save", "failed_save", "corrupt", "load"))
            state = {"step": step}
            if op == "save":
                store.save("app", state)
                expected = last_good = state
            elif op == "flaky_save":
                store.fail_next(1)  # within the retry budget: save still lands
                store.save("app", state)
                expected = last_good = state
            elif op == "failed_save":
                store.fail_next(2)  # first attempt + the one retry: exhausted
                with pytest.raises(PersistenceError):
                    store.save("app", state)
                # The atomic temp-and-rename discipline must leave the
                # previous snapshot untouched.
                assert store.load("app") == expected
            elif op == "corrupt":
                if store.path_for("app").exists():
                    corrupt_target_file(
                        store, "app", mode=rng.choice(("torn", "garbage"))
                    )
                    expected = None  # quarantined at the next load
            else:
                loaded = store.load("app")
                assert loaded == expected
                if expected is None and last_good is not None:
                    # The damaged file was quarantined, not deleted: the
                    # evidence survives for post-mortem.
                    assert store.quarantine_path_for("app").exists()

    def test_rebuild_after_quarantine_never_resurrects_corruption(self, tmp_path):
        store = FlakyTargetStore(
            tmp_path, strict=False, save_retries=0, sleep=lambda s: None
        )
        store.save("app", {"v": 1})
        corrupt_target_file(store, "app", mode="garbage")
        assert store.load("app") is None
        store.fail_next(1)
        with pytest.raises(PersistenceError):
            store.save("app", {"v": 2})
        # The failed rebuild must not have un-quarantined anything.
        assert store.load("app") is None
        store.save("app", {"v": 3})
        assert store.load("app") == {"v": 3}
        assert store.quarantine_path_for("app").exists()
