"""Kernel: thread lifecycle, effects, and the debug interface."""

from __future__ import annotations

import math

import pytest

from repro.core.config import MannersConfig
from repro.core.errors import RegulationStateError
from repro.simos.cpu import CpuPriority
from repro.simos.effects import (
    Condition,
    Delay,
    DiskRead,
    DiskWrite,
    SignalCondition,
    UseCPU,
    WaitCondition,
    Yield,
)
from repro.simos.engine import SimulationError
from repro.simos.kernel import Kernel, ThreadState
from repro.simos.sim_manners import MannersTestpoint, SimManners
from repro.simos.trace import DutyTrace


class TestLifecycle:
    def test_thread_runs_to_completion(self):
        kernel = Kernel()
        log = []

        def body():
            log.append(kernel.now)
            yield Delay(1.0)
            log.append(kernel.now)
            return "done"

        thread = kernel.spawn("t", body())
        kernel.run()
        assert log == [0.0, 1.0]
        assert thread.state is ThreadState.DONE
        assert thread.result == "done"

    def test_start_after(self):
        kernel = Kernel()
        seen = []

        def body():
            seen.append(kernel.now)
            yield Delay(0.0)

        kernel.spawn("t", body(), start_after=5.0)
        kernel.run()
        assert seen == [5.0]

    def test_thread_exception_surfaces_in_run(self):
        kernel = Kernel()

        def body():
            yield Delay(1.0)
            raise RuntimeError("boom")

        thread = kernel.spawn("t", body())
        with pytest.raises(SimulationError):
            kernel.run()
        assert thread.state is ThreadState.FAILED
        assert isinstance(thread.error, RuntimeError)

    def test_unknown_effect_fails_thread(self):
        kernel = Kernel()

        def body():
            yield "not an effect"

        kernel.spawn("t", body())
        with pytest.raises(SimulationError):
            kernel.run()


class TestEffects:
    def test_delay_advances_time(self):
        kernel = Kernel()
        times = []

        def body():
            yield Delay(2.0)
            times.append(kernel.now)
            yield Delay(3.0)
            times.append(kernel.now)

        kernel.spawn("t", body())
        kernel.run()
        assert times == [2.0, 5.0]

    def test_cpu_effect_respects_priority(self):
        kernel = Kernel()
        finish = {}

        def burner(name, n=50, slice_len=0.02):
            for _ in range(n):
                yield UseCPU(slice_len)
            finish[name] = kernel.now

        kernel.spawn("hi", burner("hi"), priority=CpuPriority.NORMAL)
        kernel.spawn("lo", burner("lo"), priority=CpuPriority.LOW)
        kernel.run()
        assert finish["hi"] == pytest.approx(1.0, abs=0.1)
        assert finish["lo"] == pytest.approx(2.0, abs=0.1)

    def test_disk_effects(self):
        kernel = Kernel()
        kernel.add_disk("C")

        def body():
            yield DiskRead("C", 0, 65536)
            yield DiskWrite("C", 100, 4096)

        kernel.spawn("t", body())
        kernel.run()
        assert kernel.disks["C"].stats.requests == 2

    def test_missing_disk_fails(self):
        kernel = Kernel()

        def body():
            yield DiskRead("nope", 0, 4096)

        kernel.spawn("t", body())
        with pytest.raises(SimulationError):
            kernel.run()

    def test_condition_wait_and_signal(self):
        kernel = Kernel()
        cond = Condition("work")
        got = []

        def consumer():
            payload = yield WaitCondition(cond)
            got.append((kernel.now, payload))

        def producer():
            yield Delay(3.0)
            yield SignalCondition(cond, payload="item")

        kernel.spawn("c", consumer())
        kernel.spawn("p", producer())
        kernel.run()
        assert got == [(3.0, "item")]

    def test_signal_broadcast(self):
        kernel = Kernel()
        cond = Condition()
        woken = []

        def waiter(name):
            yield WaitCondition(cond)
            woken.append(name)

        def signaller():
            yield Delay(1.0)
            yield SignalCondition(cond, broadcast=True)

        for n in ("a", "b", "c"):
            kernel.spawn(n, waiter(n))
        kernel.spawn("s", signaller())
        kernel.run()
        assert sorted(woken) == ["a", "b", "c"]

    def test_external_signal(self):
        kernel = Kernel()
        cond = Condition()
        woken = []

        def waiter():
            yield WaitCondition(cond)
            woken.append(kernel.now)

        kernel.spawn("w", waiter())
        kernel.engine.call_at(4.0, kernel.signal, cond)
        kernel.run()
        assert woken == [4.0]

    def test_yield_effect(self):
        kernel = Kernel()
        order = []

        def spinner(name):
            for _ in range(3):
                order.append(name)
                yield Yield()

        kernel.spawn("a", spinner("a"))
        kernel.spawn("b", spinner("b"))
        kernel.run()
        # Yield lets same-time threads interleave.
        assert order == ["a", "b", "a", "b", "a", "b"]


class TestDebugInterface:
    def test_suspend_stops_cpu_consumption(self):
        kernel = Kernel()
        finish = {}

        def burner():
            yield UseCPU(1.0)
            finish["t"] = kernel.now

        thread = kernel.spawn("t", burner())
        kernel.engine.call_at(0.3, kernel.suspend_thread, thread)
        kernel.engine.call_at(2.3, kernel.resume_thread, thread)
        kernel.run()
        # 0.3 s of work done, 2.0 s suspended, 0.7 s more work.
        assert finish["t"] == pytest.approx(3.0, abs=0.05)

    def test_suspend_parks_disk_completion(self):
        kernel = Kernel()
        kernel.add_disk("C")
        finish = {}

        def body():
            yield DiskRead("C", 500_000, 65536)
            finish["t"] = kernel.now

        thread = kernel.spawn("t", body())
        # Suspend almost immediately; the disk op completes while the
        # thread is suspended, but the thread only advances on resume.
        kernel.engine.call_at(0.001, kernel.suspend_thread, thread)
        kernel.engine.call_at(5.0, kernel.resume_thread, thread)
        kernel.run()
        assert finish["t"] == pytest.approx(5.0, abs=0.01)

    def test_suspend_during_sleep(self):
        kernel = Kernel()
        finish = {}

        def body():
            yield Delay(1.0)
            finish["t"] = kernel.now

        thread = kernel.spawn("t", body())
        kernel.engine.call_at(0.5, kernel.suspend_thread, thread)
        kernel.engine.call_at(3.0, kernel.resume_thread, thread)
        kernel.run()
        assert finish["t"] == pytest.approx(3.0, abs=0.01)

    def test_suspend_resume_idempotent(self):
        kernel = Kernel()

        def body():
            yield Delay(1.0)

        thread = kernel.spawn("t", body())
        kernel.suspend_thread(thread)
        kernel.suspend_thread(thread)
        kernel.resume_thread(thread)
        kernel.resume_thread(thread)
        kernel.run()
        assert thread.state is ThreadState.DONE

    def test_suspend_before_first_step(self):
        kernel = Kernel()
        seen = []

        def body():
            seen.append(kernel.now)
            yield Delay(0.0)

        thread = kernel.spawn("t", body())
        kernel.suspend_thread(thread)
        kernel.engine.call_at(2.0, kernel.resume_thread, thread)
        kernel.run()
        assert seen == [2.0]


class TestMachineParameters:
    @pytest.mark.parametrize("kwargs", [{"bus_bandwidth": math.nan}, {"cpu_quantum": math.nan}])
    def test_nan_rejected_at_construction(self, kwargs):
        with pytest.raises(SimulationError, match="must be positive"):
            Kernel(**kwargs)

    def test_no_bus_and_unlimited_bus_accepted(self):
        assert Kernel(bus_bandwidth=None).bus is None
        assert Kernel(bus_bandwidth=math.inf).bus.bandwidth == math.inf


class TestListeners:
    def test_lifecycle_events_emitted(self):
        kernel = Kernel()
        events = []
        kernel.add_listener(lambda kind, thread, now: events.append(kind))

        def body():
            yield Delay(1.0)

        kernel.spawn("t", body())
        kernel.run()
        assert events[0] == "spawn"
        assert "run" in events
        assert "block" in events
        assert events[-1] == "exit"

    def test_duplicate_disk_rejected(self):
        kernel = Kernel()
        kernel.add_disk("C")
        with pytest.raises(SimulationError):
            kernel.add_disk("C")

    def test_duplicate_handler_rejected(self):
        kernel = Kernel()
        with pytest.raises(SimulationError):
            kernel.register_handler(Delay, lambda t, e: None)


class TestRejectedEffects:
    """An effect a handler rejects fails its thread, like a body exception."""

    REJECTED = {
        "unknown disk": (lambda: DiskRead("nope", 0, 4096), SimulationError),
        "negative delay": (lambda: Delay(-1.0), SimulationError),
        "block out of range": (lambda: DiskRead("C", 10**9, 4096), SimulationError),
        "zero-byte read": (lambda: DiskRead("C", 0, 0), SimulationError),
        "zero-byte write": (lambda: DiskWrite("C", 0, 0), SimulationError),
        "unregulated testpoint": (lambda: MannersTestpoint((1.0,)), RegulationStateError),
        # Non-finite arguments: rejected before they touch a device.
        "NaN CPU burst": (lambda: UseCPU(math.nan), SimulationError),
        "infinite CPU burst": (lambda: UseCPU(math.inf), SimulationError),
        "NaN-byte read": (lambda: DiskRead("C", 0, math.nan), SimulationError),
        "infinite-byte read": (lambda: DiskRead("C", 0, math.inf), SimulationError),
        "NaN-byte write": (lambda: DiskWrite("C", 0, math.nan), SimulationError),
        "NaN block": (lambda: DiskRead("C", math.nan, 4096), SimulationError),
        # Non-int arguments: a float or bool block or size is never served.
        "float block": (lambda: DiskRead("C", 1.5, 4096), SimulationError),
        "float-byte read": (lambda: DiskRead("C", 0, 4096.5), SimulationError),
        "bool block": (lambda: DiskRead("C", True, 4096), SimulationError),
    }

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_thread_fails_and_simulation_runs_on(self, case):
        make_effect, error_type = self.REJECTED[case]
        kernel = Kernel()
        kernel.add_disk("C")
        SimManners(kernel)
        exits = []
        kernel.add_listener(
            lambda kind, thread, now: exits.append((thread.name, now)) if kind == "exit" else None
        )
        cleaned_up = []

        def body():
            try:
                yield Delay(0.5)
                yield make_effect()
            finally:
                cleaned_up.append(kernel.now)

        def bystander():
            yield Delay(1.0)
            yield DiskRead("C", 0, 4096)

        thread = kernel.spawn("t", body())
        other = kernel.spawn("other", bystander())
        # Bounded: an accepted infinite burst would otherwise never end.
        with pytest.raises(SimulationError, match="thread 't' failed") as info:
            kernel.run(until=60.0)
        assert thread.state is ThreadState.FAILED
        assert isinstance(thread.error, error_type)
        assert info.value.__cause__ is thread.error
        assert thread.blocked_on is None
        assert cleaned_up == [0.5]  # the body was closed at the rejection
        assert exits[0] == ("t", 0.5)
        assert other.state is ThreadState.DONE
        assert exits[1][0] == "other"

    def test_regulated_thread_releases_its_slot(self):
        kernel = Kernel()
        kernel.add_disk("C")
        manners = SimManners(kernel, MannersConfig(bootstrap_testpoints=3))
        holders = []

        def defrag():
            for step in range(4):
                yield DiskRead("C", step * 16, 65536)
                yield MannersTestpoint((float(step),))
            holders.append(manners.superintendent.holder)
            yield DiskRead("C", 10**9, 4096)

        def scanner():
            for step in range(4):
                yield DiskRead("C", 500_000 + step * 16, 65536)
                yield MannersTestpoint((float(step),))

        defragger = kernel.spawn("defrag", defrag())
        manners.regulate(defragger)
        scan = kernel.spawn("scan", scanner(), start_after=0.01)
        manners.regulate(scan)
        with pytest.raises(SimulationError):
            kernel.run()
        assert holders == ["defrag"]  # it held the slot when it failed
        assert manners.superintendent.holder is None
        assert defragger.state is ThreadState.FAILED
        assert scan.state is ThreadState.DONE  # the slot passed on


class TestListenerKinds:
    def test_exit_only_and_all_kinds_in_registration_order(self):
        kernel = Kernel()
        heard = []
        for name, exit_only in (("a", True), ("b", False), ("c", True), ("d", False)):
            kernel.add_listener(
                lambda kind, thread, now, name=name: heard.append((name, kind)),
                exit_only=exit_only,
            )

        def body():
            yield Delay(1.0)

        kernel.spawn("t", body())
        kernel.run()
        assert [name for name, kind in heard if kind == "exit"] == ["a", "b", "c", "d"]
        assert {name for name, kind in heard if kind != "exit"} == {"b", "d"}
        assert [kind for name, kind in heard if name == "b"] == [
            "spawn", "run", "block", "run", "exit"
        ]

    def test_exit_only_listener_hears_kills_and_can_leave(self):
        kernel = Kernel()
        heard = []

        def listener(kind, thread, now):
            heard.append((thread.name, kind))

        kernel.add_listener(listener, exit_only=True)

        def body():
            yield Delay(5.0)

        victim = kernel.spawn("victim", body())
        kernel.engine.call_at(1.0, kernel.kill_thread, victim)
        kernel.run()
        assert heard == [("victim", "exit")]
        kernel.remove_listener(listener)
        kernel.spawn("later", body())
        kernel.run()
        assert heard == [("victim", "exit")]

    def test_duty_trace_still_sees_run_and_block(self):
        kernel = Kernel()
        SimManners(kernel)  # an exit-only listener registered first
        trace = DutyTrace(kernel, blocked_labels=("sleep",))

        def body():
            yield Delay(1.0)
            yield UseCPU(0.5)
            yield Delay(2.0)

        thread = kernel.spawn("t", body())
        trace.watch(thread)
        kernel.run()
        assert trace.series(thread) == [
            (0.0, 1), (0.0, 0), (1.0, 1), (1.5, 0), (3.5, 1), (3.5, 0)
        ]
