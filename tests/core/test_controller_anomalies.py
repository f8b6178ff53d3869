"""Clock-anomaly guards in the regulator (§4.1 sanity checks).

Backward clock steps, zero-elapsed testpoints, and implausible rate spikes
must each be discarded — without perturbing the calibrated target or the
sign-test window — and regulation must continue normally on the very next
testpoint (one discard, never a run of them).  A non-finite timestamp is
rejected before it touches any state.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.clock import ManualClock
from repro.core.comparator import StatisticalComparator
from repro.core.controller import ThreadRegulator
from repro.core.errors import MetricError
from repro.obs.sinks import MemorySink
from repro.obs.telemetry import Telemetry


def calibrate(reg, clock, steps=100, rate=100.0, dt=0.1, counter=0.0):
    """Drive ``steps`` on-protocol testpoints at a steady rate."""
    for _ in range(steps):
        clock.advance(dt)
        counter += rate * dt
        decision = reg.on_testpoint(clock.now(), 0, [counter])
        if decision.delay > 0:
            clock.advance(decision.delay)
    return counter


class TestBackwardStep:
    def test_backward_step_discarded(self, clock, fast_config):
        comparator = StatisticalComparator()
        reg = ThreadRegulator(fast_config, comparator=comparator)
        counter = calibrate(reg, clock, steps=100)
        cal = reg.calibrator(0)
        samples_before = cal.sample_count
        target_before = cal.target_duration((10.0,))
        window_before = comparator.sample_count

        decision = reg.on_testpoint(clock.now() - 50.0, 0, [counter + 1.0])
        assert decision.processed
        assert decision.anomaly == "clock_backward"
        assert decision.delay == 0.0
        assert decision.judgment is None
        assert reg.stats.clock_anomalies == 1
        # The anomalous sample perturbed nothing.
        assert cal.sample_count == samples_before
        assert cal.target_duration((10.0,)) == target_before
        assert comparator.sample_count == window_before

    def test_one_discard_not_a_run(self, clock, fast_config):
        """The regulator rebases on the regressed reading and continues."""
        reg = ThreadRegulator(fast_config)
        counter = calibrate(reg, clock, steps=100)
        regressed = clock.now() - 50.0
        reg.on_testpoint(regressed, 0, [counter])
        # Testpoints continue at a normal cadence in the shifted timeline.
        for i in range(1, 11):
            counter += 10.0
            decision = reg.on_testpoint(regressed + 0.1 * i, 0, [counter])
            assert decision.processed
            assert decision.anomaly is None
        assert reg.stats.clock_anomalies == 1

    def test_tiny_regression_within_slack_tolerated(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        counter = calibrate(reg, clock, steps=20)
        decision = reg.on_testpoint(clock.now() - 1e-9, 0, [counter + 1.0])
        assert decision.anomaly is None
        assert reg.stats.clock_anomalies == 0

    def test_emits_anomaly_and_recovery_events(self, clock, fast_config):
        memory = MemorySink()
        reg = ThreadRegulator(fast_config, telemetry=Telemetry(sink=memory))
        counter = calibrate(reg, clock, steps=30)
        reg.on_testpoint(clock.now() - 10.0, 0, [counter + 1.0])
        anomalies = [e for e in memory.events if e.kind == "anomaly"]
        recoveries = [e for e in memory.events if e.kind == "recovery"]
        assert anomalies and anomalies[-1].anomaly == "clock_backward"
        assert recoveries and recoveries[-1].action == "sample_discarded"


class TestZeroElapsed:
    def test_zero_elapsed_discarded(self, clock, fast_config):
        comparator = StatisticalComparator()
        reg = ThreadRegulator(fast_config, comparator=comparator)
        counter = calibrate(reg, clock, steps=100)
        cal = reg.calibrator(0)
        samples_before = cal.sample_count
        window_before = comparator.sample_count

        # Frozen clock: same reading, counters advanced.
        decision = reg.on_testpoint(clock.now(), 0, [counter + 10.0])
        assert decision.processed
        assert decision.anomaly == "zero_elapsed"
        assert reg.stats.zero_elapsed_discards == 1
        assert cal.sample_count == samples_before
        assert comparator.sample_count == window_before

    def test_regulation_continues_after_frozen_clock(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        counter = calibrate(reg, clock, steps=100)
        reg.on_testpoint(clock.now(), 0, [counter + 10.0])
        clock.advance(0.1)
        decision = reg.on_testpoint(clock.now(), 0, [counter + 20.0])
        assert decision.anomaly is None
        assert decision.processed


class TestRateSpike:
    def test_implausible_spike_discarded(self, clock, fast_config):
        comparator = StatisticalComparator()
        reg = ThreadRegulator(fast_config, comparator=comparator)
        counter = calibrate(reg, clock, steps=100)
        cal = reg.calibrator(0)
        samples_before = cal.sample_count
        target_before = cal.target_duration((10.0,))
        window_before = comparator.sample_count

        # Work that calibrated at ~0.1 s reported in 10 µs: >1000x spike.
        clock.advance(1e-5)
        decision = reg.on_testpoint(clock.now(), 0, [counter + 10.0])
        assert decision.processed
        assert decision.anomaly == "rate_spike"
        assert reg.stats.rate_spike_discards == 1
        assert cal.sample_count == samples_before
        assert cal.target_duration((10.0,)) == target_before
        assert comparator.sample_count == window_before

    def test_merely_fast_progress_not_discarded(self, clock, fast_config):
        """2x faster than target is plausible and must be judged, not dropped."""
        reg = ThreadRegulator(fast_config)
        counter = calibrate(reg, clock, steps=100)
        clock.advance(0.05)
        decision = reg.on_testpoint(clock.now(), 0, [counter + 10.0])
        assert decision.anomaly is None
        assert decision.calibrated

    def test_spikes_not_checked_during_bootstrap(self, clock, fast_config):
        """During bootstrap there is no trusted target to compare against."""
        reg = ThreadRegulator(fast_config)
        reg.on_testpoint(clock.now(), 0, [0.0])
        clock.advance(1e-6)
        decision = reg.on_testpoint(clock.now(), 0, [1000.0])
        assert decision.anomaly is None
        assert reg.stats.rate_spike_discards == 0


class TestForcedDiscard:
    def test_discard_next_interval(self, clock, fast_config):
        comparator = StatisticalComparator()
        reg = ThreadRegulator(fast_config, comparator=comparator)
        counter = calibrate(reg, clock, steps=100)
        cal = reg.calibrator(0)
        samples_before = cal.sample_count
        window_before = comparator.sample_count

        reg.discard_next_interval("watchdog_stall")
        clock.advance(5.0)  # the stall: long but below hung_threshold
        decision = reg.on_testpoint(clock.now(), 0, [counter + 1.0])
        assert decision.processed
        assert decision.anomaly == "watchdog_stall"
        assert reg.stats.forced_discards == 1
        assert cal.sample_count == samples_before
        assert comparator.sample_count == window_before

    def test_forced_discard_consumed_once(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        counter = calibrate(reg, clock, steps=100)
        reg.discard_next_interval()
        clock.advance(1.0)
        first = reg.on_testpoint(clock.now(), 0, [counter + 1.0])
        assert first.anomaly == "external_stall"
        clock.advance(0.1)
        second = reg.on_testpoint(clock.now(), 0, [counter + 11.0])
        assert second.anomaly is None
        assert reg.stats.forced_discards == 1


class TestNonFiniteTime:
    def test_infinite_first_testpoint_leaves_no_trace(self, fast_config):
        """An ``inf`` start would pin probation open for the thread's life."""
        config = fast_config.with_overrides(probation_period=60.0)
        rejected, fresh = ThreadRegulator(config), ThreadRegulator(config)
        with pytest.raises(MetricError, match="not finite"):
            rejected.on_testpoint(math.inf, 0, [0.0])
        rejected_clock, fresh_clock = ManualClock(), ManualClock()
        calibrate(rejected, rejected_clock, steps=1000)
        calibrate(fresh, fresh_clock, steps=1000)
        assert rejected_clock.now() > 60.0
        assert not rejected.in_probation(rejected_clock.now())
        assert rejected.stats == fresh.stats
        assert rejected_clock.now() == fresh_clock.now()

    def test_nan_after_bootstrap_changes_nothing(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        counter = calibrate(reg, clock, steps=100)
        state = reg.export_state(include_runtime=True)
        stats = dataclasses.replace(reg.stats)
        clock.advance(0.1)
        with pytest.raises(MetricError, match="not finite"):
            reg.on_testpoint(math.nan, 0, [counter + 10.0])
        assert reg.export_state(include_runtime=True) == state
        assert reg.stats == stats
        # The next sane testpoint is measured from the untouched baseline.
        decision = reg.on_testpoint(clock.now(), 0, [counter + 10.0])
        assert decision.processed and decision.anomaly is None
