"""FaultInjector primitives against the simulated kernel."""

import pytest

from repro.core.errors import FaultError
from repro.faults.injector import FaultInjector, SkewedTime
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.sinks import MemorySink
from repro.obs.telemetry import Telemetry
from repro.simos.effects import Delay, DiskRead
from repro.simos.kernel import DiskFault, Kernel


def sleeper(n):
    for _ in range(n):
        yield Delay(1.0)


class TestSkewedTime:
    def test_tracks_base_plus_offset(self):
        t = {"now": 10.0}
        skew = SkewedTime(lambda: t["now"])
        assert skew() == 10.0
        skew.apply("clock_backstep", 4.0)
        assert skew() == 6.0
        skew.apply("clock_jump", 100.0)
        assert skew() == 106.0
        t["now"] = 20.0
        assert skew() == 116.0

    def test_rejects_non_clock_kinds(self):
        skew = SkewedTime(lambda: 0.0)
        with pytest.raises(FaultError):
            skew.apply("stall", 1.0)


class TestStallUnstall:
    def test_stall_freezes_thread_until_unstall(self):
        kernel = Kernel(seed=1)
        thread = kernel.spawn("w1", sleeper(100))
        injector = FaultInjector(kernel)
        injector.register_thread(thread)
        kernel.engine.call_at(5.0, injector.inject, "stall", "w1")
        kernel.engine.call_at(25.0, injector.inject, "unstall", "w1")
        kernel.run(until=10.0)
        assert thread.suspended
        kernel.run(until=40.0)
        assert not thread.suspended
        assert thread.alive  # still working through its delays
        assert [s.kind for s in injector.fired] == ["stall", "unstall"]

    def test_unregistered_target_rejected(self):
        kernel = Kernel(seed=1)
        injector = FaultInjector(kernel)
        with pytest.raises(FaultError):
            injector.inject("stall", "nobody")


class TestCrash:
    def test_crash_kills_running_thread(self):
        kernel = Kernel(seed=1)
        thread = kernel.spawn("w1", sleeper(100))
        injector = FaultInjector(kernel)
        injector.register_thread(thread)
        kernel.engine.call_at(5.0, injector.inject, "crash", "w1")
        end = kernel.run(until=20.0)  # must not raise
        assert end == 20.0
        assert not thread.alive
        assert thread.error is not None

    def test_crash_mid_suspension(self):
        kernel = Kernel(seed=1)
        thread = kernel.spawn("w1", sleeper(100))
        injector = FaultInjector(kernel)
        injector.register_thread(thread)
        kernel.engine.call_at(5.0, injector.inject, "stall", "w1")
        kernel.engine.call_at(8.0, injector.inject, "crash", "w1")
        kernel.run(until=20.0)
        assert not thread.alive
        assert not thread.suspended

    def test_finally_blocks_run_on_kill(self):
        seen = []

        def body():
            try:
                yield Delay(100.0)
            finally:
                seen.append("cleaned")

        kernel = Kernel(seed=1)
        thread = kernel.spawn("w1", body())
        kernel.engine.call_at(1.0, kernel.kill_thread, thread)
        kernel.run(until=5.0)
        assert seen == ["cleaned"]


class TestDiskFault:
    def test_faulted_read_raises_in_thread(self):
        caught = []

        def reader():
            for i in range(5):
                try:
                    yield DiskRead("C", i, 4096)
                except DiskFault as exc:
                    caught.append(str(exc))

        kernel = Kernel(seed=1)
        kernel.add_disk("C")
        thread = kernel.spawn("r", reader())
        injector = FaultInjector(kernel)
        kernel.engine.call_at(0.0, injector.inject, "disk_fail", "C", 2.0)
        kernel.run(until=10.0)
        assert len(caught) == 2
        assert thread.alive is False  # generator completed normally
        assert thread.error is None

    def test_uncaught_fault_fails_thread(self):
        def reader():
            yield DiskRead("C", 0, 4096)

        kernel = Kernel(seed=1)
        kernel.add_disk("C")
        kernel.spawn("r", reader())
        kernel.inject_disk_fault("C", 1)
        with pytest.raises(Exception):
            kernel.run(until=10.0)

    def test_unknown_disk_rejected(self):
        kernel = Kernel(seed=1)
        with pytest.raises(Exception):
            kernel.inject_disk_fault("Z", 1)


class TestArm:
    def test_arm_schedules_plan(self):
        kernel = Kernel(seed=1)
        thread = kernel.spawn("w1", sleeper(100))
        plan = FaultPlan(
            [
                FaultSpec(at=3.0, kind="stall", target="w1"),
                FaultSpec(at=6.0, kind="unstall", target="w1"),
            ]
        )
        injector = FaultInjector(kernel, plan)
        injector.register_thread(thread)
        assert injector.arm() == 2
        kernel.run(until=10.0)
        assert [s.kind for s in injector.fired] == ["stall", "unstall"]
        assert [s.at for s in injector.fired] == [3.0, 6.0]

    def test_arm_rejects_non_dispatchable_kinds(self):
        kernel = Kernel(seed=1)
        plan = FaultPlan([FaultSpec(at=1.0, kind="torn_file", target="app")])
        with pytest.raises(FaultError):
            FaultInjector(kernel, plan).arm()

    def test_arm_rejects_unregistered_targets(self):
        kernel = Kernel(seed=1)
        plan = FaultPlan([FaultSpec(at=1.0, kind="crash", target="ghost")])
        with pytest.raises(FaultError):
            FaultInjector(kernel, plan).arm()

    def test_clock_fault_requires_skew(self):
        kernel = Kernel(seed=1)
        injector = FaultInjector(kernel)
        with pytest.raises(FaultError):
            injector.inject("clock_jump", "clock", 60.0)


class TestTelemetry:
    def test_faults_emit_events(self):
        memory = MemorySink()
        kernel = Kernel(seed=1)
        thread = kernel.spawn("w1", sleeper(10))
        skew = SkewedTime(lambda: kernel.now)
        injector = FaultInjector(
            kernel, telemetry=Telemetry(sink=memory), skew=skew
        )
        injector.register_thread(thread)
        kernel.engine.call_at(2.0, injector.inject, "stall", "w1")
        kernel.engine.call_at(3.0, injector.inject, "clock_jump", "clock", 60.0)
        kernel.run(until=5.0)
        faults = [e for e in memory.events if e.kind == "fault"]
        assert [e.fault for e in faults] == ["stall", "clock_jump"]
        # The clock event is stamped in the skewed frame.
        assert faults[1].t == pytest.approx(63.0)
