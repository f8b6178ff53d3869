"""Performance counters, traces, and workload schedules."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import RegulationStateError
from repro.core.signtest import Judgment
from repro.simos.effects import Delay
from repro.simos.kernel import Kernel
from repro.simos.perfcounters import PerfCounterRegistry
from repro.simos.trace import DutyTrace
from repro.simos.trace import TestpointTrace as PointTrace
from repro.simos.workload import bursty_schedule, busy_fraction, is_busy


class TestPerfCounters:
    def test_publish_and_read(self):
        reg = PerfCounterRegistry()
        counter = reg.publish("app", "ops")
        counter.add(5.0)
        counter.add(2.0)
        assert reg.read("app", "ops") == 7.0

    def test_publish_is_idempotent(self):
        reg = PerfCounterRegistry()
        a = reg.publish("app", "ops")
        b = reg.publish("app", "ops")
        assert a is b

    def test_set_overwrites(self):
        reg = PerfCounterRegistry()
        counter = reg.publish("app", "gauge")
        counter.set(42.0)
        counter.set(10.0)
        assert counter.value == 10.0

    def test_negative_increment_rejected(self):
        counter = PerfCounterRegistry().publish("app", "ops")
        with pytest.raises(ValueError):
            counter.add(-1.0)

    def test_unknown_counter_rejected(self):
        reg = PerfCounterRegistry()
        with pytest.raises(RegulationStateError):
            reg.read("ghost", "ops")

    def test_read_all(self):
        reg = PerfCounterRegistry()
        reg.publish("app", "a").add(1)
        reg.publish("app", "b").add(2)
        reg.publish("other", "c").add(3)
        assert reg.read_all("app") == {"a": 1.0, "b": 2.0}
        assert reg.processes() == ("app", "other")


def _full_walk(series, start, end):
    """The original ``DutyTrace.executing_time``: every segment, in order."""
    total = 0.0
    for i, (t, flag) in enumerate(series):
        seg_end = series[i + 1][0] if i + 1 < len(series) else max(end, t)
        lo = max(t, start)
        hi = min(seg_end, end)
        if hi > lo and flag:
            total += hi - lo
    return total


class TestDutyTrace:
    def test_records_executing_intervals(self):
        kernel = Kernel()
        duty = DutyTrace(kernel, blocked_labels=("manners",))

        def body():
            yield Delay(1.0)
            yield Delay(1.0)

        thread = kernel.spawn("t", body())
        duty.watch(thread)
        kernel.run()
        # Sleeping counts as executing (it is not a manners block).
        assert duty.duty_fraction(thread, 0.0, 2.0) == pytest.approx(1.0)

    def test_suspension_counts_as_blocked(self):
        kernel = Kernel()
        duty = DutyTrace(kernel)

        def body():
            yield Delay(10.0)

        thread = kernel.spawn("t", body())
        duty.watch(thread)
        kernel.engine.call_at(2.0, kernel.suspend_thread, thread)
        kernel.engine.call_at(6.0, kernel.resume_thread, thread)
        kernel.run()
        assert duty.executing_time(thread, 0.0, 10.0) == pytest.approx(6.0, abs=0.1)

    def test_binned_series(self):
        kernel = Kernel()
        duty = DutyTrace(kernel)

        def body():
            yield Delay(4.0)

        thread = kernel.spawn("t", body())
        duty.watch(thread)
        kernel.engine.call_at(2.0, kernel.suspend_thread, thread)
        kernel.run(until=4.0)
        bins = duty.binned(thread, 0.0, 4.0, 1.0)
        assert [round(f) for _, f in bins] == [1, 1, 0, 0]

    def test_untraced_thread_rejected(self):
        kernel = Kernel()
        duty = DutyTrace(kernel)

        def body():
            yield Delay(1.0)

        thread = kernel.spawn("t", body())
        with pytest.raises(KeyError):
            duty.series(thread)

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from((0.0, 0.0, 0.1, 0.25, 1.0 / 3.0, 1.7, 10.0)),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=30,
        ),
        windows=st.lists(
            st.tuples(
                st.one_of(st.floats(-5.0, 80.0), st.integers(-1, 30).map(float)),
                st.floats(0.0, 60.0),
            ),
            min_size=1,
            max_size=8,
        ),
        edges=st.lists(st.integers(0, 29), max_size=4),
        bin_width=st.sampled_from((0.1, 0.7, 1.0, 5.0)),
    )
    def test_windows_match_the_full_walk(self, steps, windows, edges, bin_width):
        """Bisecting to the overlapping segments gives the same floats."""
        series = []
        t = 0.0
        for dt, flag in steps:
            t += dt
            series.append((t, flag))
        duty = DutyTrace(Kernel())
        thread = object()
        duty._traced[thread] = series
        times = [when for when, _ in series]
        # Windows anywhere, and windows that start or end on a transition.
        bounds = [(lo, lo + width) for lo, width in windows]
        bounds += [(times[i % len(times)], times[-1] + 1.0) for i in edges]
        bounds += [(-1.0, times[i % len(times)]) for i in edges]
        for lo, hi in bounds:
            assert duty.executing_time(thread, lo, hi) == _full_walk(series, lo, hi)
        lo, hi = bounds[0]
        expected = []
        at = lo
        while at < hi:
            top = min(at + bin_width, hi)
            span = top - at
            expected.append(
                (at, _full_walk(series, at, top) / span if span > 0 else 0.0)
            )
            at = top
        assert duty.binned(thread, lo, hi, bin_width) == expected


class TestTestpointTrace:
    def test_normalized_progress_series(self):
        trace = PointTrace()
        # First window: measured == target (ratio 1); second: measured 2x.
        for i in range(4):
            trace.record(0.1 + i * 0.2, 0.2, 0.2, Judgment.GOOD, 0.0)
        for i in range(4):
            trace.record(2.1 + i * 0.2, 0.2, 0.1, Judgment.POOR, 1.0)
        series = trace.normalized_progress(0.0, 4.0, window=2.0)
        assert series[0][1] == pytest.approx(1.0)
        assert series[1][1] == pytest.approx(0.5)

    def test_mean_target_duration_windowing(self):
        trace = PointTrace()
        trace.record(1.0, 0.5, 0.4, None, 0.0)
        trace.record(5.0, 0.5, 0.8, None, 0.0)
        assert trace.mean_target_duration(0.0, 2.0) == pytest.approx(0.4)
        assert trace.mean_target_duration(0.0, 10.0) == pytest.approx(0.6)
        assert trace.mean_target_duration(8.0, 10.0) is None

    def test_windows_without_comparisons_skipped(self):
        trace = PointTrace()
        trace.record(1.0, 0.5, None, None, 0.0)  # bootstrap record
        assert trace.normalized_progress(0.0, 2.0, window=2.0) == []


class TestWorkloadSchedules:
    def test_bursts_ordered_and_disjoint(self):
        bursts = bursty_schedule(100_000.0, seed=1)
        for a, b in zip(bursts, bursts[1:]):
            assert a.end <= b.start
        assert all(b.duration > 0 for b in bursts)

    def test_burst_durations_in_range(self):
        bursts = bursty_schedule(200_000.0, seed=2, burst_range=(10.0, 900.0))
        for burst in bursts[:-1]:  # last may be clipped by the horizon
            assert 10.0 <= burst.duration <= 900.0

    def test_starts_busy_for_worst_case(self):
        bursts = bursty_schedule(10_000.0, seed=3, start_busy=True)
        assert bursts[0].start == 0.0

    def test_overall_duty_near_base(self):
        total = 400_000.0
        bursts = bursty_schedule(total, seed=4, base_duty=0.5, diurnal_amplitude=0.0)
        assert busy_fraction(bursts, 0.0, total) == pytest.approx(0.5, abs=0.1)

    def test_diurnal_modulation_visible(self):
        day = 86_400.0
        bursts = bursty_schedule(
            2 * day, seed=5, diurnal_period=day, base_duty=0.5, diurnal_amplitude=0.4
        )
        # Peak quarter (around day * 0.25) busier than trough (day * 0.75).
        peak = busy_fraction(bursts, 0.1 * day, 0.4 * day)
        trough = busy_fraction(bursts, 0.6 * day, 0.9 * day)
        assert peak > trough + 0.2

    def test_is_busy(self):
        bursts = bursty_schedule(10_000.0, seed=6, start_busy=True)
        assert is_busy(bursts, bursts[0].start)
        assert not is_busy(bursts, bursts[0].end)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            bursty_schedule(0.0)
        with pytest.raises(ValueError):
            bursty_schedule(10.0, base_duty=1.5)
