"""Wall-clock adapter regulating real Python threads."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.config import MannersConfig
from repro.core.errors import ConfigError, RegulationStateError
from repro.core.persistence import TargetStore
from repro.obs.events import RecoveryAction
from repro.obs.sinks import MemorySink
from repro.obs.telemetry import Telemetry
from repro.realtime import adapter
from repro.realtime.adapter import RealTimeRegulator

#: Persisted states ``ThreadRegulator.import_state`` rejects: a ridge
#: statistic that is NaN (JSON loads it as a float), and a set with no
#: calibration.
REJECTED_SNAPSHOTS = {
    "ridge-statistic-nan": {
        "sets": {
            "0": {
                "arity": 2,
                "calibration": {"x": [[float("nan"), 0.0], [0.0, 1.0]], "y": [0.0, 0.0]},
            }
        }
    },
    "set-without-calibration": {"sets": {"0": {"arity": 2}}},
}

FAST_RT = MannersConfig(
    bootstrap_testpoints=5,
    probation_period=0.0,
    averaging_n=50,
    min_testpoint_interval=0.005,
    initial_suspension=0.05,
    max_suspension=0.4,
    hung_threshold=5.0,
)


class TestSingleThread:
    def test_unimpeded_when_alone(self):
        regulator = RealTimeRegulator(FAST_RT)
        count = 0.0
        start = time.monotonic()
        for _ in range(60):
            time.sleep(0.002)
            count += 1.0
            regulator.testpoint([count])
        elapsed = time.monotonic() - start
        # ~0.12 s of work; regulation overhead must stay small.
        assert elapsed < 1.0
        regulator.release()

    def test_decision_returned(self):
        regulator = RealTimeRegulator(FAST_RT)
        decision = regulator.testpoint([0.0])
        assert decision.processed

    def test_closed_regulator_rejects(self):
        regulator = RealTimeRegulator(FAST_RT)
        regulator.testpoint([0.0])
        regulator.close()
        with pytest.raises(RegulationStateError):
            regulator.testpoint([1.0])

    def test_context_manager(self):
        with RealTimeRegulator(FAST_RT) as regulator:
            regulator.testpoint([0.0])


class TestMultiThread:
    def test_two_threads_share(self):
        regulator = RealTimeRegulator(FAST_RT)
        done = {"a": 0, "b": 0}
        stop = time.monotonic() + 1.5

        def worker(name):
            count = 0.0
            while time.monotonic() < stop:
                time.sleep(0.002)
                count += 1.0
                regulator.testpoint([count])
                done[name] += 1
            regulator.release()

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert done["a"] > 20 and done["b"] > 20
        ratio = done["a"] / max(done["b"], 1)
        assert 0.4 <= ratio <= 2.5  # decay-usage sharing is roughly fair

    def test_priority_registration(self):
        regulator = RealTimeRegulator(FAST_RT)
        regulator.register(priority=3)
        tid = threading.get_ident()
        assert tid in regulator.supervisor.thread_ids()
        regulator.set_priority(5)
        regulator.release()

    def test_close_unblocks_waiters(self):
        regulator = RealTimeRegulator(FAST_RT)
        errors = []
        started = threading.Event()

        def worker():
            count = 0.0
            try:
                for _ in range(10_000):
                    count += 1.0
                    regulator.testpoint([count])
                    started.set()
            except RegulationStateError:
                pass  # expected once closed
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        t = threading.Thread(target=worker)
        t.start()
        started.wait(timeout=5.0)
        regulator.close()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert errors == []


class TestPersistence:
    def test_targets_survive_restart(self, tmp_path):
        store = TargetStore(tmp_path)
        first = RealTimeRegulator(FAST_RT, app_id="rt-app", store=store)
        count = 0.0
        for _ in range(40):
            time.sleep(0.001)
            count += 1.0
            first.testpoint([count])
        first.close()
        assert store.load("rt-app") is not None

        second = RealTimeRegulator(FAST_RT, app_id="rt-app", store=store)
        second.testpoint([0.0])
        tid = threading.get_ident()
        assert not second.supervisor.regulator(tid).in_bootstrap
        second.close()

    @pytest.mark.parametrize("snapshot", REJECTED_SNAPSHOTS.values(), ids=REJECTED_SNAPSHOTS.keys())
    def test_rejected_snapshot_rebootstraps(self, tmp_path, snapshot):
        store = TargetStore(tmp_path)
        store.save("rt-app", snapshot)
        sink = MemorySink()
        regulator = RealTimeRegulator(
            FAST_RT, app_id="rt-app", store=store, telemetry=Telemetry(sink=sink)
        )
        # One metric per testpoint: a half-imported two-metric set 0 refused them.
        decisions = [regulator.testpoint([float(done)]) for done in range(4)]
        assert decisions[0].processed and decisions[0].bootstrap
        tid = threading.get_ident()
        fresh = regulator.supervisor.regulator(tid)
        assert fresh.metric_set_indices() == (0,)
        assert fresh.in_bootstrap
        regulator.close()
        actions = [e.action for e in sink.events if isinstance(e, RecoveryAction)]
        assert actions.count("rebootstrap") == 1
        assert regulator.persistence_errors == 1
        # close() saved the fresh regulator, not the rejected snapshot.
        assert store.load("rt-app")["sets"]["0"]["arity"] == 1

    def test_app_id_requires_store(self):
        with pytest.raises(ValueError):
            RealTimeRegulator(FAST_RT, app_id="x")

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"), float("inf")])
    def test_save_interval_must_be_finite_and_positive(self, tmp_path, interval):
        with pytest.raises(ConfigError, match="save_interval"):
            RealTimeRegulator(
                FAST_RT, app_id="x", store=TargetStore(tmp_path), save_interval=interval
            )

    def test_saves_once_per_elapsed_interval(self, monkeypatch):
        now = 1000.0
        monkeypatch.setattr(adapter, "time", SimpleNamespace(monotonic=lambda: now))
        saved_at = []
        store = SimpleNamespace(
            load=lambda app_id: None,
            save=lambda app_id, state: saved_at.append(now),
        )
        # Still bootstrapping throughout, so no testpoint is ever suspended.
        config = FAST_RT.with_overrides(bootstrap_testpoints=1000)
        regulator = RealTimeRegulator(config, app_id="app", store=store, save_interval=10.0)
        for step in range(1, 70):  # a testpoint every 0.5 s for 34.5 s
            now = 1000.0 + 0.5 * step
            regulator.testpoint([float(step)])
        assert saved_at == [1010.0, 1020.0, 1030.0]


class TestSignalHandlers:
    """SIGTERM/SIGINT flush: close() always persists pending targets."""

    @pytest.fixture
    def probe_signal(self):
        # A harmless signal the test can actually raise at itself.
        import signal

        original = signal.getsignal(signal.SIGUSR1)
        yield signal.SIGUSR1
        signal.signal(signal.SIGUSR1, original)

    def test_signal_flushes_pending_save(self, tmp_path, probe_signal):
        import signal

        signal.signal(probe_signal, lambda *_: None)
        store = TargetStore(tmp_path)
        regulator = RealTimeRegulator(FAST_RT, app_id="sig-app", store=store)
        regulator.testpoint([1.0])
        assert store.load("sig-app") is None  # periodic save not due yet
        assert regulator.install_signal_handlers(signals=(probe_signal,))
        signal.raise_signal(probe_signal)
        assert store.load("sig-app") is not None
        with pytest.raises(RegulationStateError):
            regulator.testpoint([2.0])

    def test_previous_handler_is_chained(self, probe_signal):
        import signal

        seen = []
        signal.signal(probe_signal, lambda signum, frame: seen.append(signum))
        regulator = RealTimeRegulator(FAST_RT)
        regulator.install_signal_handlers(signals=(probe_signal,))
        signal.raise_signal(probe_signal)
        assert seen == [probe_signal]

    def test_install_is_idempotent_and_uninstall_restores(self, probe_signal):
        import signal

        def sentinel(signum, frame):  # pragma: no cover - never raised
            pass

        signal.signal(probe_signal, sentinel)
        regulator = RealTimeRegulator(FAST_RT)
        assert regulator.install_signal_handlers(signals=(probe_signal,))
        assert regulator.install_signal_handlers(signals=(probe_signal,))
        assert signal.getsignal(probe_signal) is not sentinel
        regulator.uninstall_signal_handlers()
        assert signal.getsignal(probe_signal) is sentinel

    def test_close_uninstalls(self, probe_signal):
        import signal

        def sentinel(signum, frame):  # pragma: no cover - never raised
            pass

        signal.signal(probe_signal, sentinel)
        regulator = RealTimeRegulator(FAST_RT)
        regulator.install_signal_handlers(signals=(probe_signal,))
        regulator.close()
        assert signal.getsignal(probe_signal) is sentinel

    def test_install_off_main_thread_refuses(self):
        results = []
        regulator = RealTimeRegulator(FAST_RT)
        thread = threading.Thread(
            target=lambda: results.append(regulator.install_signal_handlers())
        )
        thread.start()
        thread.join()
        assert results == [False]
