"""Telemetry through the regulation stack: event order, determinism, purity."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.controller import ThreadRegulator
from repro.core.signtest import Judgment
from repro.obs import events as obs_events
from repro.obs import lazy
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import MemorySink
from repro.obs.telemetry import Telemetry

#: A small, fast configuration for scripted episodes.
EPISODE_CONFIG = DEFAULT_CONFIG.with_overrides(
    bootstrap_testpoints=2,
    min_testpoint_interval=0.0,
    probation_period=0.0,
    initial_suspension=1.0,
    max_suspension=8.0,
    averaging_n=400,
    hung_threshold=1000.0,
)


def run_episode(telemetry: Telemetry | None):
    """Scripted episode: bootstrap -> good -> poor/backoff -> good/reset.

    Drives one ThreadRegulator through constant-rate progress (good), then
    4x-slow progress (poor, exponential backoff), then back to the original
    rate (good again, backoff reset).  Returns the decision list.
    """
    regulator = ThreadRegulator(EPISODE_CONFIG, telemetry=telemetry)
    decisions = []
    state = {"now": 0.0, "count": 0.0}

    def step(duration: float):
        state["now"] += duration
        state["count"] += 10.0
        decision = regulator.on_testpoint(state["now"], 0, [state["count"]])
        decisions.append(decision)
        state["now"] += decision.delay  # serve the mandated suspension
        return decision

    step(0.0)  # priming testpoint
    for _ in range(7):  # bootstrap + warm-up: calibrate at 10 units/s
        step(1.0)
    for _ in range(40):  # progressing above target -> GOOD
        if step(0.8).judgment is Judgment.GOOD:
            break
    poor = 0
    for _ in range(40):  # contention: 4x the calibrated duration -> POOR
        if step(4.0).judgment is Judgment.POOR:
            poor += 1
            if poor >= 2:  # at least two backoff levels
                break
    for _ in range(40):  # contention clears -> GOOD, backoff reset
        if step(0.8).judgment is Judgment.GOOD:
            break
    return decisions


class TestEventOrder:
    @pytest.fixture(scope="class")
    def episode(self):
        sink = MemorySink()
        telemetry = Telemetry(sink=sink, metrics=MetricsRegistry())
        decisions = run_episode(telemetry)
        return sink, telemetry, decisions

    def test_phases_open_the_stream(self, episode):
        sink, _, _ = episode
        phases = [e.phase for e in sink.of_kind("phase")]
        assert phases[:2] == ["bootstrap", "regulating"]

    def test_good_then_poor_then_reset(self, episode):
        sink, _, _ = episode
        kinds = sink.kinds()
        first_good = next(
            i for i, e in enumerate(sink.events)
            if e.kind == "judgment" and e.judgment == "good"
        )
        first_poor = next(
            i for i, e in enumerate(sink.events)
            if e.kind == "judgment" and e.judgment == "poor"
        )
        first_suspend = kinds.index("suspension_started")
        first_reset = kinds.index("backoff_reset")
        assert first_good < first_poor < first_reset
        # The suspension is imposed by the first POOR judgment.
        assert first_suspend == first_poor + 1

    def test_backoff_levels_escalate_then_reset(self, episode):
        sink, _, _ = episode
        suspensions = sink.of_kind("suspension_started")
        assert len(suspensions) >= 2
        assert suspensions[0].level == 0
        assert suspensions[0].delay == pytest.approx(1.0)
        assert suspensions[1].level == 1
        assert suspensions[1].delay == pytest.approx(2.0)
        (reset,) = sink.of_kind("backoff_reset")
        assert reset.from_level == len(suspensions)

    def test_every_processed_testpoint_emits_one_event(self, episode):
        sink, _, decisions = episode
        processed = [d for d in decisions if d.processed]
        testpoints = sink.of_kind("testpoint")
        assert len(testpoints) == len(processed) - 1  # priming emits none
        # Event fields mirror the decision the caller saw.
        for event, decision in zip(testpoints, processed[1:]):
            assert event.duration == pytest.approx(decision.duration)
            assert event.delay == pytest.approx(decision.delay)
            expected = None if decision.judgment is None else decision.judgment.value
            assert event.judgment == expected

    def test_timestamps_are_monotone(self, episode):
        sink, _, _ = episode
        times = [e.t for e in sink.events]
        assert times == sorted(times)

    def test_events_carry_no_src_by_default(self, episode):
        # Unscoped telemetry: src stays "" (scoping is the substrate's job).
        sink, _, _ = episode
        assert {e.src for e in sink.events} == {""}


class TestMetrics:
    def test_counters_match_decisions(self):
        telemetry = Telemetry(sink=MemorySink(), metrics=MetricsRegistry())
        decisions = run_episode(telemetry)
        snap = telemetry.metrics.snapshot()
        counters = snap["counters"]
        assert counters["testpoints"] == len(decisions)
        assert counters["testpoints_processed"] == sum(
            1 for d in decisions if d.processed
        )
        assert counters["judgments_poor"] == sum(
            1 for d in decisions if d.judgment is Judgment.POOR
        )
        assert counters["judgments_good"] == sum(
            1 for d in decisions if d.judgment is Judgment.GOOD
        )
        assert counters["suspensions"] == sum(1 for d in decisions if d.delay > 0)
        assert counters["suspension_seconds"] == pytest.approx(
            sum(d.delay for d in decisions)
        )
        assert counters["execution_seconds"] == pytest.approx(
            sum(d.duration for d in decisions if d.processed)
        )

    def test_duty_cycle_derived(self):
        telemetry = Telemetry(sink=MemorySink(), metrics=MetricsRegistry())
        decisions = run_episode(telemetry)
        executed = sum(d.duration for d in decisions if d.processed)
        suspended = sum(d.delay for d in decisions)
        snap = telemetry.metrics.snapshot()
        assert snap["derived"]["duty_cycle"] == pytest.approx(
            executed / (executed + suspended)
        )

    def test_suspension_histogram(self):
        telemetry = Telemetry(sink=MemorySink(), metrics=MetricsRegistry())
        decisions = run_episode(telemetry)
        hist = telemetry.metrics.histogram("suspension_delay")
        assert hist.count == sum(1 for d in decisions if d.delay > 0)
        assert hist.max == max(d.delay for d in decisions)


class TestEmittingFlag:
    def test_null_sink_disables_event_construction(self):
        from repro.obs.sinks import NullSink

        telemetry = Telemetry(sink=NullSink(), metrics=MetricsRegistry())
        assert telemetry.emitting is False
        assert telemetry.scoped("child").emitting is False
        # Metrics still accumulate on the null-sink path.
        decisions = run_episode(telemetry)
        assert telemetry.metrics.counter("testpoints").value == len(decisions)

    def test_memory_sink_keeps_events(self):
        telemetry = Telemetry(sink=MemorySink(), metrics=MetricsRegistry())
        assert telemetry.emitting is True
        assert telemetry.scoped("child").emitting is True

    def test_decisions_identical_across_sinks(self):
        from repro.obs.sinks import NullSink

        with_null = run_episode(Telemetry(sink=NullSink(), metrics=MetricsRegistry()))
        with_memory = run_episode(Telemetry(sink=MemorySink(), metrics=MetricsRegistry()))
        assert with_null == with_memory


class TestDisabledPath:
    def test_decisions_identical_with_and_without_telemetry(self):
        without = run_episode(None)
        with_tel = run_episode(Telemetry(sink=MemorySink(), metrics=MetricsRegistry()))
        assert without == with_tel

    def test_null_path_constructs_no_event_objects(self, monkeypatch):
        """telemetry=None must never even *allocate* an event.

        Emit sites reference event classes as ``obs_events.ClassName``
        attributes of the ``repro.obs.lazy`` accessor, which hands out the
        classes of ``repro.obs.events``; replacing every class in both with
        a bomb proves the disabled path never reaches a constructor.
        """

        def bomb(*args, **kwargs):
            raise AssertionError("event constructed on the telemetry=None path")

        event_base = obs_events.Event
        for name, cls in list(vars(obs_events).items()):
            if isinstance(cls, type) and issubclass(cls, event_base):
                # The accessor first: reading it there keeps the real class,
                # which the undo puts back.
                monkeypatch.setattr(lazy, name, bomb)
                monkeypatch.setattr(obs_events, name, bomb)
        decisions = run_episode(None)
        assert any(d.judgment is Judgment.POOR for d in decisions)

    def test_telemetry_never_leaks_into_decision(self):
        telemetry = Telemetry(sink=MemorySink(), metrics=MetricsRegistry())
        for decision in run_episode(telemetry):
            for field in dataclasses.fields(decision):
                assert "telemetry" not in field.name
