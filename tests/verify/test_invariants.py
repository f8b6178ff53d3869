"""Invariant monitors: silent on correct components, loud on broken ones."""

from __future__ import annotations

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.controller import ThreadRegulator
from repro.core.errors import MetricError
from repro.core.suspension import SuspensionTimer
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import MemorySink
from repro.obs.telemetry import Telemetry
from repro.simos.engine import Engine
from repro.verify.harness import (
    INVARIANT_DRIVES,
    _drive_engine,
    _drive_regulator,
    _drive_suspension_timer,
)
from repro.verify.invariants import (
    EngineInvariantMonitor,
    RegulatorInvariantMonitor,
    SuspensionInvariantMonitor,
    VerificationError,
    ViolationRecorder,
    check_regulator_roundtrip,
)


@pytest.mark.parametrize("drive", sorted(INVARIANT_DRIVES))
@pytest.mark.parametrize("seed", [1, 2])
def test_drives_clean_on_real_components(drive, seed):
    result = INVARIANT_DRIVES[drive](seed)
    assert result.ok, result.violations[:3]
    assert result.checks > 0


def test_suspension_monitor_passes_through_saturation():
    recorder = ViolationRecorder(mode="raise")
    monitor = SuspensionInvariantMonitor(
        SuspensionTimer(initial=1.0, maximum=8.0), recorder
    )
    imposed = [monitor.on_poor() for _ in range(6)]
    assert imposed == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]
    assert monitor.saturated
    monitor.on_good()
    assert monitor.current == 1.0 and monitor.consecutive_poor == 0
    assert recorder.ok


class _OvershootingTimer(SuspensionTimer):
    """Broken: keeps doubling straight past its cap."""

    def on_poor(self):
        self._consecutive_poor += 1
        self._current = self._current * 2.0
        return self._current


class _StickyTimer(SuspensionTimer):
    """Broken: GOOD resets the backoff but forgets the poor count."""

    def on_good(self):
        self._current = self.initial


def test_suspension_monitor_detects_cap_overshoot():
    recorder = ViolationRecorder(mode="record")
    monitor = SuspensionInvariantMonitor(
        _OvershootingTimer(initial=1.0, maximum=4.0), recorder
    )
    for _ in range(5):
        monitor.on_poor()
    assert any(v.invariant == "cap_overshoot" for v in recorder.violations)


def test_suspension_monitor_detects_sticky_reset():
    recorder = ViolationRecorder(mode="record")
    monitor = SuspensionInvariantMonitor(
        _StickyTimer(initial=1.0, maximum=4.0), recorder
    )
    monitor.on_poor()
    monitor.on_good()
    assert any(v.invariant == "reset" for v in recorder.violations)


def test_recorder_raise_mode_raises_verification_error():
    recorder = ViolationRecorder(mode="raise")
    monitor = SuspensionInvariantMonitor(
        _OvershootingTimer(initial=1.0, maximum=4.0), recorder
    )
    # The sabotaged timer imposes the *post*-doubling value, so the very
    # first POOR (k=0 should impose `initial`) already breaks the law.
    with pytest.raises(VerificationError):
        monitor.on_poor()


def test_recorder_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ViolationRecorder(mode="whatever")


def test_recorder_emits_obs_events():
    sink = MemorySink()
    telemetry = Telemetry(sink=sink, metrics=MetricsRegistry())
    recorder = ViolationRecorder(mode="record", telemetry=telemetry)
    recorder.report("engine", "monotone_clock", "clock ran backwards", t=3.5)
    events = sink.of_kind("anomaly")
    assert len(events) == 1
    assert events[0].anomaly == "invariant:monotone_clock"
    assert "engine" in events[0].detail
    assert telemetry.metrics.snapshot()["counters"]["invariant_violations"] == 1


def test_engine_monitor_clean_and_detaches():
    recorder = ViolationRecorder(mode="raise")
    engine = Engine()
    monitor = EngineInvariantMonitor(engine, recorder)
    fired = []
    engine.call_after(1.0, fired.append, 1)
    handle = engine.call_after(2.0, fired.append, 2)
    handle.cancel()
    engine.run(until=5.0)
    assert fired == [1]
    assert recorder.checks > 0
    monitor.detach()
    assert "step" not in engine.__dict__ and "call_at" not in engine.__dict__


def test_engine_monitor_detects_corrupted_pending_counter():
    recorder = ViolationRecorder(mode="record")
    engine = Engine()
    EngineInvariantMonitor(engine, recorder)
    engine.call_after(1.0, lambda: None)
    engine._cancelled -= 1  # simulate an accounting bug (pending reads high)
    engine.run()
    assert any(v.invariant == "pending_count" for v in recorder.violations)


def test_engine_monitor_detects_backward_clock():
    recorder = ViolationRecorder(mode="record")
    engine = Engine()
    monitor = EngineInvariantMonitor(engine, recorder)
    engine.call_after(5.0, lambda: None)
    engine.run()
    engine.now = 1.0  # simulate a clock regression
    engine.call_at(2.0, lambda: None)
    assert any(v.invariant == "monotone_clock" for v in recorder.violations)
    monitor.detach()


def _run_regulated_stream(regulator, steps=60, start=0.0):
    now = start
    progress = 0.0
    for i in range(steps):
        progress += 10.0 + (i % 3)
        decision = regulator.on_testpoint(now, 0, (progress,))
        now += decision.delay + 0.5
    return now


def test_regulator_monitor_clean_on_stock_regulator():
    config = DEFAULT_CONFIG.with_overrides(
        bootstrap_testpoints=4, min_testpoint_interval=0.0
    )
    regulator = ThreadRegulator(config=config, start_time=0.0)
    recorder = ViolationRecorder(mode="raise")
    monitor = RegulatorInvariantMonitor(regulator, recorder, roundtrip_every=8)
    _run_regulated_stream(regulator)
    assert recorder.ok and recorder.checks > 0
    monitor.detach()
    assert "on_testpoint" not in regulator.__dict__
    assert isinstance(regulator._suspension, SuspensionTimer)


def test_regulator_monitor_detects_broken_roundtrip():
    config = DEFAULT_CONFIG.with_overrides(
        bootstrap_testpoints=4, min_testpoint_interval=0.0
    )
    regulator = ThreadRegulator(config=config, start_time=0.0)
    recorder = ViolationRecorder(mode="record")
    RegulatorInvariantMonitor(regulator, recorder)
    now = _run_regulated_stream(regulator)
    # Sabotage the snapshot path: export a suspension beyond the cap.  The
    # clone's import clamps it back into band, so its re-export cannot match
    # the lying snapshot — exactly the drift the fidelity check exists for.
    original = regulator.export_state

    def lying_export(include_runtime=False):
        state = original(include_runtime=include_runtime)
        state["suspension"]["current"] = 1e9
        return state

    regulator.export_state = lying_export
    check_regulator_roundtrip(regulator, recorder, t=now)
    assert any(v.invariant == "roundtrip_fidelity" for v in recorder.violations)


def test_roundtrip_check_faithful_mid_stream():
    config = DEFAULT_CONFIG.with_overrides(
        bootstrap_testpoints=4, min_testpoint_interval=0.0
    )
    regulator = ThreadRegulator(config=config, start_time=0.0)
    now = _run_regulated_stream(regulator, steps=25)
    recorder = ViolationRecorder(mode="record")
    assert check_regulator_roundtrip(regulator, recorder, t=now)
    assert recorder.ok


@pytest.mark.parametrize("sabotage", ["accepts", "changes_then_raises"])
def test_roundtrip_check_flags_a_rejected_snapshot_that_is_not_clean(monkeypatch, sabotage):
    config = DEFAULT_CONFIG.with_overrides(
        bootstrap_testpoints=4, min_testpoint_interval=0.0
    )
    regulator = ThreadRegulator(config=config, start_time=0.0)
    now = _run_regulated_stream(regulator, steps=25)
    real_import = ThreadRegulator.import_state
    calls = []

    def sabotaged_import(self, state):
        calls.append(state)
        if len(calls) == 1:  # the faithful clone
            return real_import(self, state)
        if sabotage == "changes_then_raises":
            self._processed_testpoints += 1
            raise MetricError("sabotaged")
        return None  # the NaN runtime baseline goes unnoticed

    monkeypatch.setattr(ThreadRegulator, "import_state", sabotaged_import)
    recorder = ViolationRecorder(mode="record")
    assert not check_regulator_roundtrip(regulator, recorder, t=now)
    assert [v.invariant for v in recorder.violations] == ["rejected_snapshot"]


def test_drive_functions_report_checks():
    for fn in (_drive_suspension_timer, _drive_engine, _drive_regulator):
        result = fn(7)
        assert result.checks > 0
        assert result.ok, result.violations[:3]
