"""Cross-process file-token superintendent."""

from __future__ import annotations

import os
import time

import pytest

from repro.realtime.filetoken import FileTokenSuperintendent


class TestTokenProtocol:
    def test_acquire_creates_file(self, tmp_path):
        token = tmp_path / "manners.token"
        boss = FileTokenSuperintendent(token)
        boss.register_process("A")
        assert boss.acquire("A", 0.0)
        assert token.exists()

    def test_second_superintendent_denied(self, tmp_path):
        token = tmp_path / "manners.token"
        boss_a = FileTokenSuperintendent(token)
        boss_b = FileTokenSuperintendent(token)
        boss_a.register_process("A")
        boss_b.register_process("B")
        assert boss_a.acquire("A", 0.0)
        assert not boss_b.acquire("B", 0.0)

    def test_release_lets_other_acquire(self, tmp_path):
        token = tmp_path / "manners.token"
        boss_a = FileTokenSuperintendent(token)
        boss_b = FileTokenSuperintendent(token)
        boss_a.register_process("A")
        boss_b.register_process("B")
        boss_a.acquire("A", 0.0)
        boss_a.release("A", 1.0)
        assert not token.exists()
        assert boss_b.acquire("B", 1.0)

    def test_reacquire_is_heartbeat(self, tmp_path):
        token = tmp_path / "manners.token"
        boss = FileTokenSuperintendent(token)
        boss.register_process("A")
        boss.acquire("A", 0.0)
        before = token.stat().st_mtime
        time.sleep(0.02)
        assert boss.acquire("A", 1.0)
        assert token.stat().st_mtime >= before

    def test_stale_token_broken(self, tmp_path):
        token = tmp_path / "manners.token"
        token.write_text("12345:'dead'\n")
        old = time.time() - 120.0
        os.utime(token, (old, old))
        boss = FileTokenSuperintendent(token, stale_after=60.0)
        boss.register_process("A")
        assert boss.acquire("A", 0.0)

    def test_fresh_foreign_token_respected(self, tmp_path):
        token = tmp_path / "manners.token"
        token.write_text("12345:'other'\n")
        boss = FileTokenSuperintendent(token, stale_after=60.0)
        boss.register_process("A")
        assert not boss.acquire("A", 0.0)

    def test_release_idempotent(self, tmp_path):
        boss = FileTokenSuperintendent(tmp_path / "t")
        boss.register_process("A")
        boss.release("A", 0.0)
        boss.acquire("A", 0.0)
        boss.release("A", 0.0)
        boss.release("A", 0.0)

    def test_unregister_drops_token(self, tmp_path):
        token = tmp_path / "t"
        boss = FileTokenSuperintendent(token)
        boss.register_process("A")
        boss.acquire("A", 0.0)
        boss.unregister_process("A")
        assert not token.exists()

    def test_next_eligible_time_polls(self, tmp_path):
        boss = FileTokenSuperintendent(tmp_path / "t", retry_interval=0.5)
        boss.register_process("A")
        assert boss.next_eligible_time(10.0) == 10.5
        boss.acquire("A", 10.0)
        assert boss.next_eligible_time(10.0) is None

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FileTokenSuperintendent(tmp_path / "t", stale_after=0.0)
        with pytest.raises(ValueError):
            FileTokenSuperintendent(tmp_path / "t", retry_interval=0.0)


class TestWithRealTimeRegulator:
    def test_release_of_last_thread_returns_token(self, tmp_path):
        """A process whose last thread leaves must not keep the token: a
        peer would otherwise block until the token goes stale."""
        from repro.realtime.adapter import RealTimeRegulator

        token = tmp_path / "manners.token"
        regulator = RealTimeRegulator(
            superintendent=FileTokenSuperintendent(token), process_id="a"
        )
        regulator.testpoint([1.0])
        assert token.exists()
        regulator.release()
        assert not token.exists()
        assert FileTokenSuperintendent(token).acquire("b", 0.0)

    def test_two_regulators_share_machine_token(self, tmp_path):
        """Two RealTimeRegulators (standing in for two OS processes) defer
        to each other through the file token."""
        import threading

        from repro.core.config import MannersConfig
        from repro.realtime.adapter import RealTimeRegulator

        token = tmp_path / "manners.token"
        config = MannersConfig(
            bootstrap_testpoints=5, probation_period=0.0, averaging_n=50,
            min_testpoint_interval=0.002, initial_suspension=0.05,
            max_suspension=0.2, hung_threshold=5.0,
        )
        done = {"a": 0, "b": 0}
        overlap = {"count": 0, "max": 0}
        active_lock = threading.Lock()
        active = set()
        stop = time.monotonic() + 1.5

        def worker(name):
            boss = FileTokenSuperintendent(token, retry_interval=0.01)
            regulator = RealTimeRegulator(
                config, superintendent=boss, process_id=name
            )
            count = 0.0
            while time.monotonic() < stop:
                with active_lock:
                    active.add(name)
                    overlap["max"] = max(overlap["max"], len(active))
                time.sleep(0.002)  # the "work"
                with active_lock:
                    active.discard(name)
                count += 1.0
                regulator.testpoint([count])
                done[name] += 1
            regulator.release()

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert done["a"] + done["b"] > 50
        # Both made progress: the token rotates.
        assert done["a"] > 5 and done["b"] > 5
