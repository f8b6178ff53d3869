"""The MS Manners bridge inside the simulator."""

from __future__ import annotations

import pytest

from repro.core.config import MannersConfig
from repro.core.errors import RegulationStateError
from repro.core.persistence import TargetStore
from repro.core.signtest import Judgment
from repro.obs.events import RecoveryAction
from repro.obs.sinks import MemorySink
from repro.obs.telemetry import Telemetry
from repro.simos.effects import Delay, DiskRead
from repro.simos.kernel import Kernel
from repro.simos.sim_manners import MannersTestpoint, SetThreadPriority, SimManners
from tests.test_realtime import REJECTED_SNAPSHOTS


@pytest.fixture
def sim_config() -> MannersConfig:
    return MannersConfig(
        bootstrap_testpoints=10,
        probation_period=0.0,
        averaging_n=200,
        min_testpoint_interval=0.05,
        initial_suspension=0.5,
        max_suspension=32.0,
    )


def disk_worker(kernel, n, counter_scale=1.0, results=None, name="w"):
    done = 0.0
    for i in range(n):
        yield DiskRead("C", (i * 37) % 100_000, 65536)
        done += counter_scale
        yield MannersTestpoint((done,))
    if results is not None:
        results[name] = kernel.now


class TestRegulationFlow:
    def test_unregulated_thread_rejected(self, sim_config):
        kernel = Kernel()
        kernel.add_disk("C")
        SimManners(kernel, sim_config)

        def body():
            yield MannersTestpoint((1.0,))

        kernel.spawn("t", body())
        with pytest.raises(Exception):
            kernel.run()

    def test_double_regulation_rejected(self, sim_config):
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)
        thread = kernel.spawn("t", disk_worker(kernel, 10))
        manners.regulate(thread)
        with pytest.raises(RegulationStateError):
            manners.regulate(thread)

    def test_sole_thread_runs_freely_when_idle(self, sim_config):
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)
        results = {}
        thread = kernel.spawn("t", disk_worker(kernel, 400, results=results, name="t"))
        manners.regulate(thread)
        kernel.run()
        regulator = None  # thread exited; pull stats from the trace
        trace = manners.traces[thread]
        poors = [r for r in trace.records if r.judgment is Judgment.POOR]
        # An idle machine: very few (ideally zero) poor judgments.
        assert len(poors) <= 2
        # ~400 reads at ~11 ms: finishes in well under double the solo time.
        assert results["t"] < 10.0

    def test_contention_suspends_thread(self, sim_config):
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)
        thread = kernel.spawn("li", disk_worker(kernel, 2000), process="li")
        manners.regulate(thread)

        def hog():
            yield Delay(10.0)
            for i in range(600):
                yield DiskRead("C", (i * 53 + 7) % 100_000, 65536)

        kernel.spawn("hog", hog(), process="hog")
        kernel.run(until=200.0)
        trace = manners.traces.get(thread)
        poors = [r for r in trace.records if r.judgment is Judgment.POOR]
        assert poors, "contention must be recognized"
        # Delays doubled over consecutive poors.
        assert any(r.delay >= 1.0 for r in poors)

    def test_testpoint_trace_recorded(self, sim_config):
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)
        thread = kernel.spawn("t", disk_worker(kernel, 100))
        manners.regulate(thread)
        kernel.run()
        assert len(manners.traces[thread]) > 0


class TestIsolation:
    def test_two_threads_never_overlap(self, sim_config):
        """Time-multiplex isolation: at most one regulated thread runs."""
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)
        running = []

        def worker(name, n=150):
            done = 0.0
            # Priming testpoint: enter supervision before any work, as a
            # library application calling Testpoint at its top of loop does.
            yield MannersTestpoint((done,))
            for i in range(n):
                running.append((kernel.now, name, "start"))
                yield DiskRead("C", (i * 37 + len(name) * 13) % 100_000, 65536)
                running.append((kernel.now, name, "end"))
                done += 1
                yield MannersTestpoint((done,))

        t1 = kernel.spawn("w1", worker("w1"), process="p")
        t2 = kernel.spawn("w2", worker("w2"), process="p")
        manners.regulate(t1)
        manners.regulate(t2)
        kernel.run()
        # Reconstruct concurrent disk operations from the event log.
        active: set[str] = set()
        max_active = 0
        for _, name, what in sorted(running, key=lambda e: e[0]):
            if what == "start":
                active.add(name)
                max_active = max(max_active, len(active))
            else:
                active.discard(name)
        assert max_active == 1

    def test_priority_thread_gets_more_service(self, sim_config):
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)
        progress = {"hi": 0, "lo": 0}

        def worker(name):
            done = 0.0
            for i in range(10_000):
                yield DiskRead("C", (i * 37) % 100_000, 65536)
                done += 1
                progress[name] += 1
                yield MannersTestpoint((done,))

        t_hi = kernel.spawn("hi", worker("hi"), process="p")
        t_lo = kernel.spawn("lo", worker("lo"), process="p")
        manners.regulate(t_hi, priority=2)
        manners.regulate(t_lo, priority=0)
        kernel.run(until=30.0)
        assert progress["hi"] > 2 * progress["lo"]

    def test_processes_share_via_superintendent(self, sim_config):
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)
        progress = {"a": 0, "b": 0}

        def worker(name):
            done = 0.0
            for i in range(10_000):
                yield DiskRead("C", (i * 37) % 100_000, 65536)
                done += 1
                progress[name] += 1
                yield MannersTestpoint((done,))

        t_a = kernel.spawn("a", worker("a"), process="procA")
        t_b = kernel.spawn("b", worker("b"), process="procB")
        manners.regulate(t_a)
        manners.regulate(t_b)
        kernel.run(until=30.0)
        total = progress["a"] + progress["b"]
        assert total > 0
        # Machine-wide sharing: neither process monopolizes.
        assert 0.25 <= progress["a"] / total <= 0.75

    def test_set_thread_priority_effect(self, sim_config):
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)

        def worker():
            yield SetThreadPriority(5)
            done = 0.0
            for i in range(20):
                yield DiskRead("C", i * 100, 65536)
                done += 1
                yield MannersTestpoint((done,))

        thread = kernel.spawn("t", worker(), process="p")
        manners.regulate(thread)
        kernel.run()
        assert thread.state.value == "done"


class TestHungThreadIntegration:
    def test_hung_thread_releases_slot(self, sim_config):
        """A thread stalled in an external delay lets the other run."""
        config = sim_config.with_overrides(hung_threshold=5.0)
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, config)
        progress = {"stuck": 0, "busy": 0}

        def stuck():
            done = 0.0
            yield DiskRead("C", 0, 65536)
            done += 1
            yield MannersTestpoint((done,))
            # Simulates a failed network connection: a huge external delay.
            yield Delay(60.0)
            done += 1
            yield MannersTestpoint((done,))
            progress["stuck"] = done

        def busy():
            done = 0.0
            for i in range(200):
                yield DiskRead("C", (i * 37) % 100_000, 65536)
                done += 1
                progress["busy"] += 1
                yield MannersTestpoint((done,))

        t_stuck = kernel.spawn("stuck", stuck(), process="p")
        t_busy = kernel.spawn("busy", busy(), process="p")
        manners.regulate(t_stuck)
        manners.regulate(t_busy)
        kernel.run(until=120.0)
        # The busy thread made progress despite the stuck one holding the
        # slot initially.
        assert progress["busy"] >= 150
        # The stuck thread eventually completed (its post-hang testpoint
        # was discarded, not fatal).
        assert progress["stuck"] == 2.0


class TestPersistenceIntegration:
    def test_targets_persist_across_simulated_restarts(self, sim_config, tmp_path):
        """A regulated app's targets survive a 'reboot' of the machine."""
        store = TargetStore(tmp_path)

        def run_once():
            kernel = Kernel(seed=8)
            kernel.add_disk("C")
            manners = SimManners(kernel, sim_config)
            thread = kernel.spawn("t", disk_worker(kernel, 300), process="app")
            regulator = manners.regulate(thread, store=store, app_id="app")
            kernel.run()
            store.save("app", regulator.export_state())
            return regulator

        first = run_once()
        assert first.stats.calibration_samples > 0

        # Second boot: targets load, bootstrap skipped.
        kernel = Kernel(seed=9)
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)
        thread = kernel.spawn("t", disk_worker(kernel, 50), process="app")
        regulator = manners.regulate(thread, store=store, app_id="app")
        assert not regulator.in_bootstrap
        kernel.run()

    @pytest.mark.parametrize("snapshot", REJECTED_SNAPSHOTS.values(), ids=REJECTED_SNAPSHOTS.keys())
    def test_rejected_snapshot_rebootstraps(self, sim_config, tmp_path, snapshot):
        store = TargetStore(tmp_path)
        store.save("app", snapshot)
        kernel = Kernel(seed=8)
        kernel.add_disk("C")
        sink = MemorySink()
        manners = SimManners(kernel, sim_config, telemetry=Telemetry(sink=sink))
        thread = kernel.spawn("t", disk_worker(kernel, 50), process="app")
        regulator = manners.regulate(thread, store=store, app_id="app")
        assert regulator.metric_set_indices() == ()
        assert regulator.in_bootstrap
        # One metric per testpoint: a half-imported two-metric set 0 refused them.
        kernel.run()
        assert thread.error is None
        assert regulator.stats.processed > 0
        actions = [e.action for e in sink.events if isinstance(e, RecoveryAction)]
        assert actions.count("rebootstrap") == 1

    @pytest.mark.parametrize("given", ["store", "app_id"])
    def test_store_and_app_id_go_together(self, sim_config, tmp_path, given):
        # A store without an app_id restored nothing, silently.
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)
        thread = kernel.spawn("t", disk_worker(kernel, 10))
        kwargs = {"store": TargetStore(tmp_path)} if given == "store" else {"app_id": "app"}
        with pytest.raises(ValueError, match="together"):
            manners.regulate(thread, **kwargs)
        manners.regulate(thread)  # the rejected call enrolled nothing


class TestThreeProcessSharing:
    def test_three_processes_all_progress(self, sim_config):
        """Machine-wide arbitration rotates the token across 3 processes."""
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)
        progress = {"a": 0, "b": 0, "c": 0}

        def worker(name):
            done = 0.0
            for i in range(10_000):
                yield DiskRead("C", (i * 37) % 100_000, 65536)
                done += 1
                progress[name] += 1
                yield MannersTestpoint((done,))

        for name in ("a", "b", "c"):
            thread = kernel.spawn(name, worker(name), process=f"proc-{name}")
            manners.regulate(thread)
        kernel.run(until=45.0)
        total = sum(progress.values())
        assert total > 0
        for name, count in progress.items():
            share = count / total
            assert 0.15 <= share <= 0.55, f"{name} share {share:.2f} unfair"

    def test_exiting_process_releases_machine(self, sim_config):
        """When one process finishes, the survivors absorb its share."""
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, sim_config)
        progress = {"short": 0, "long": 0}

        def worker(name, items):
            done = 0.0
            for i in range(items):
                yield DiskRead("C", (i * 37) % 100_000, 65536)
                done += 1
                progress[name] += 1
                yield MannersTestpoint((done,))

        t_short = kernel.spawn("short", worker("short", 50), process="p-short")
        t_long = kernel.spawn("long", worker("long", 10_000), process="p-long")
        manners.regulate(t_short)
        manners.regulate(t_long)
        kernel.run(until=40.0)
        assert progress["short"] == 50  # finished
        assert progress["long"] > 1000  # inherited the whole machine
