"""The per-thread regulation state machine."""

from __future__ import annotations

import copy
import json
import math

import pytest

from repro.core.clock import ManualClock
from repro.core.config import MannersConfig
from repro.core.controller import ThreadRegulator
from repro.core.errors import MannersError, MetricError
from repro.core.signtest import Judgment


def drive(
    regulator: ThreadRegulator,
    clock: ManualClock,
    rate: float,
    steps: int,
    dt: float = 0.1,
    counter_start: float | None = None,
    honor_delays: bool = True,
):
    """Run ``steps`` testpoints at a constant true progress rate.

    Returns (decisions, final_counter).
    """
    counter = counter_start if counter_start is not None else 0.0
    decisions = []
    for _ in range(steps):
        clock.advance(dt)
        counter += rate * dt
        decision = regulator.on_testpoint(clock.now(), 0, [counter])
        decisions.append(decision)
        if honor_delays and decision.delay > 0:
            clock.advance(decision.delay)
    return decisions, counter


class TestBasicFlow:
    def test_priming_testpoint(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        decision = reg.on_testpoint(clock.now(), 0, [0.0])
        assert decision.processed
        assert decision.judgment is None
        assert decision.delay == 0.0

    def test_lightweight_gate(self, clock):
        cfg = MannersConfig(min_testpoint_interval=0.5, probation_period=0.0)
        reg = ThreadRegulator(cfg)
        reg.on_testpoint(clock.now(), 0, [0.0])
        clock.advance(0.1)
        decision = reg.on_testpoint(clock.now(), 0, [1.0])
        assert not decision.processed
        assert reg.stats.lightweight == 1

    def test_bootstrap_never_suspends(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        # The priming call is processed testpoint #1, so bootstrap covers
        # the next bootstrap_testpoints - 1 measured testpoints.
        decisions, _ = drive(
            reg, clock, rate=100.0, steps=fast_config.bootstrap_testpoints - 1
        )
        assert all(d.delay == 0.0 for d in decisions)
        assert all(d.judgment is None for d in decisions)

    def test_steady_rate_mostly_good(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        drive(reg, clock, rate=100.0, steps=300)
        assert reg.stats.good_judgments > 0
        # Type-I errors are rare (alpha = 0.05 per judgment).
        total = reg.stats.good_judgments + reg.stats.poor_judgments
        assert reg.stats.poor_judgments <= max(2, int(0.15 * total))

    def test_degraded_rate_triggers_backoff(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        _, counter = drive(reg, clock, rate=100.0, steps=100)
        decisions, _ = drive(
            reg, clock, rate=30.0, steps=40, counter_start=counter, honor_delays=True
        )
        poor = [d for d in decisions if d.judgment is Judgment.POOR]
        assert poor, "sustained degradation must be recognized"
        delays = [d.delay for d in poor]
        # Exponential doubling, capped.
        for first, second in zip(delays, delays[1:]):
            assert second == pytest.approx(min(first * 2.0, 64.0))

    def test_recovery_resets_suspension(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        _, counter = drive(reg, clock, rate=100.0, steps=100)
        _, counter = drive(reg, clock, rate=20.0, steps=30, counter_start=counter)
        assert reg.suspension.current > fast_config.initial_suspension
        drive(reg, clock, rate=100.0, steps=60, counter_start=counter)
        assert reg.suspension.current == fast_config.initial_suspension


class TestDurationAccounting:
    def test_suspension_not_counted_as_slow_progress(self, clock, fast_config):
        """After a mandated delay, the next interval starts at the release
        time, so an honest post-suspension rate measures at target."""
        reg = ThreadRegulator(fast_config)
        _, counter = drive(reg, clock, rate=100.0, steps=100)
        # Force a poor phase to accumulate a suspension.
        decisions, counter = drive(reg, clock, rate=10.0, steps=20, counter_start=counter)
        # Resume at full rate: the regulator should quickly be satisfied.
        decisions, _ = drive(reg, clock, rate=100.0, steps=80, counter_start=counter)
        recovered = [d for d in decisions if d.judgment is Judgment.GOOD]
        assert recovered

    def test_counter_continuity_across_suspensions(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        c = 0.0
        for _ in range(50):
            clock.advance(0.1)
            c += 10.0
            d = reg.on_testpoint(clock.now(), 0, [c])
            if d.delay:
                clock.advance(d.delay)
        assert reg.stats.processed == 50


class TestOffProtocol:
    def test_ignoring_suspension_is_subsampled(self, clock, fast_config):
        """An app that keeps running during mandated suspension has its
        measurements excluded from calibration (section 4.3)."""
        reg = ThreadRegulator(fast_config)
        _, counter = drive(reg, clock, rate=100.0, steps=100)
        # Degrade and refuse to honor the delays.
        count = reg.stats.off_protocol_samples
        saw_delay = False
        for _ in range(40):
            clock.advance(0.1)
            counter += 3.0
            decision = reg.on_testpoint(clock.now(), 0, [counter])
            if decision.delay > 0:
                saw_delay = True
            # Deliberately do NOT advance the clock by the delay.
        assert saw_delay
        assert reg.stats.off_protocol_samples > count

    def test_off_protocol_samples_not_calibrated(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        _, counter = drive(reg, clock, rate=100.0, steps=100)
        off_protocol_seen = 0
        for _ in range(40):
            clock.advance(0.1)
            counter += 3.0
            decision = reg.on_testpoint(clock.now(), 0, [counter])
            if decision.off_protocol:
                off_protocol_seen += 1
                assert not decision.calibrated
        assert off_protocol_seen > 0


class TestHungThreads:
    def test_long_gap_discarded(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        drive(reg, clock, rate=100.0, steps=50)
        clock.advance(fast_config.hung_threshold + 5.0)
        decision = reg.on_testpoint(clock.now(), 0, [1e9])
        assert decision.discarded_hung
        assert decision.judgment is None
        assert not decision.calibrated
        assert reg.stats.hung_discards == 1

    def test_gap_within_threshold_not_discarded(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        drive(reg, clock, rate=100.0, steps=50)
        clock.advance(fast_config.hung_threshold - 1.0)
        decision = reg.on_testpoint(clock.now(), 0, [1e9])
        assert not decision.discarded_hung


class TestProbation:
    def test_probation_caps_duty_cycle(self, clock):
        cfg = MannersConfig(
            bootstrap_testpoints=1,
            probation_period=1000.0,
            probation_duty=0.25,
            averaging_n=100,
            min_testpoint_interval=0.0,
        )
        reg = ThreadRegulator(cfg)
        reg.on_testpoint(clock.now(), 0, [0.0])
        executing = 0.0
        suspended = 0.0
        counter = 0.0
        for _ in range(100):
            clock.advance(0.1)
            executing += 0.1
            counter += 10.0
            decision = reg.on_testpoint(clock.now(), 0, [counter])
            if decision.delay > 0:
                clock.advance(decision.delay)
                suspended += decision.delay
        duty = executing / (executing + suspended)
        assert duty == pytest.approx(0.25, rel=0.15)

    def test_probation_expires(self, clock):
        cfg = MannersConfig(
            bootstrap_testpoints=1,
            probation_period=5.0,
            probation_duty=0.25,
            averaging_n=100,
            min_testpoint_interval=0.0,
        )
        reg = ThreadRegulator(cfg)
        reg.on_testpoint(clock.now(), 0, [0.0])
        assert reg.in_probation(clock.now())
        clock.advance(10.0)
        assert not reg.in_probation(clock.now())


class TestMultipleMetricSets:
    def test_phased_sets_allocate_lazily(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        c0 = c1 = 0.0
        for i in range(60):
            clock.advance(0.1)
            if i % 2 == 0:
                c0 += 10.0
                reg.on_testpoint(clock.now(), 0, [c0])
            else:
                c1 += 3.0
                reg.on_testpoint(clock.now(), 1, [c1])
        assert reg.metric_set_indices() == (0, 1)

    def test_arity_fixed_per_set(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        reg.on_testpoint(clock.now(), 0, [0.0, 0.0])
        clock.advance(0.2)
        with pytest.raises(MetricError):
            reg.on_testpoint(clock.now(), 0, [1.0])

    def test_counter_regression_rejected(self, clock, fast_config):
        reg = ThreadRegulator(fast_config)
        reg.on_testpoint(clock.now(), 0, [10.0])
        clock.advance(0.2)
        with pytest.raises(MetricError):
            reg.on_testpoint(clock.now(), 0, [5.0])


class TestPersistenceIntegration:
    @pytest.mark.parametrize("start_time", [float("nan"), float("inf")])
    def test_import_rejects_non_finite_start_time(self, fast_config, start_time):
        # Restored, NaN made in_probation always false (probation skipped)
        # and inf always true.
        clock = ManualClock()
        donor = ThreadRegulator(fast_config)
        drive(donor, clock, rate=100.0, steps=50)
        state = donor.export_state()
        state["start_time"] = start_time
        heir = ThreadRegulator(fast_config)
        before = heir.export_state()
        with pytest.raises(MetricError, match="start time"):
            heir.import_state(state)
        assert heir.export_state() == before

    def test_export_import_skips_bootstrap(self, clock, fast_config):
        donor = ThreadRegulator(fast_config)
        drive(donor, clock, rate=100.0, steps=100)
        state = donor.export_state()

        fresh = ThreadRegulator(fast_config)
        fresh.import_state(state)
        assert not fresh.in_bootstrap

    def test_imported_targets_regulate_immediately(self, fast_config):
        clock_a = ManualClock()
        donor = ThreadRegulator(fast_config)
        drive(donor, clock_a, rate=100.0, steps=200)

        clock_b = ManualClock()
        heir = ThreadRegulator(fast_config)
        heir.import_state(donor.export_state())
        # Degraded progress should be condemned quickly on the heir.
        decisions, _ = drive(heir, clock_b, rate=20.0, steps=30)
        assert any(d.judgment is Judgment.POOR for d in decisions)


def two_set_snapshot(config: MannersConfig) -> dict:
    """A runtime snapshot of a regulator with a one- and a two-metric set."""
    clock = ManualClock()
    donor = ThreadRegulator(config)
    single, pair = 0.0, (0.0, 0.0)
    for step in range(80):
        clock.advance(0.1)
        if step % 2:
            # The one-metric set slows down late, so the donor backs off.
            single += 10.0 if step < 60 else 2.0
            decision = donor.on_testpoint(clock.now(), 0, [single])
        else:
            pair = (pair[0] + 5.0, pair[1] + 3.0 + step % 3)
            decision = donor.on_testpoint(clock.now(), 1, pair)
        clock.advance(decision.delay)
    return donor.export_state(include_runtime=True)


_DROP = object()
_NAN = float("nan")


def _put(*path_and_value):
    """A corruption that sets (or, with ``_DROP``, deletes) one entry."""
    *path, value = path_and_value

    def corrupt(state):
        target = state
        for key in path[:-1]:
            target = target[key]
        if value is _DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return state

    return corrupt


#: One corruption per section of the snapshot, each enough to reject it.
CORRUPTIONS = {
    "snapshot-not-a-mapping": lambda state: [state],
    "sets-wrong-type": _put("sets", [0, 1]),
    "set-index-wrong-type": lambda state: {
        **state, "sets": {"0": state["sets"]["0"], "one": state["sets"]["1"]}
    },
    "set-arity-missing": _put("sets", "1", "arity", _DROP),
    "set-arity-wrong-type": _put("sets", "1", "arity", "two"),
    # A valid two-metric set where the regulator already has a one-metric set 0.
    "set-arity-conflicts": lambda state: _put("sets", "0", state["sets"]["1"])(state),
    "set-calibration-missing": _put("sets", "1", "calibration", _DROP),
    "set-calibration-wrong-type": _put("sets", "1", "calibration", "fast"),
    "single-rate-nan": _put("sets", "0", "calibration", "rate", _NAN),
    "single-median-scale-nan": _put("sets", "0", "calibration", "median_scale", _NAN),
    "ridge-statistic-nan": _put("sets", "1", "calibration", "x", 0, 0, _NAN),
    "ridge-y-missing": _put("sets", "1", "calibration", "y", _DROP),
    "suspension-wrong-type": _put("suspension", "fast"),
    "suspension-current-nan": _put("suspension", "current", _NAN),
    "suspension-count-wrong-type": _put("suspension", "consecutive_poor", "abc"),
    "comparator-wrong-type": _put("comparator", [0, 1]),
    "comparator-samples-wrong-type": _put("comparator", "samples", "abc"),
    "comparator-below-exceeds-samples": _put("comparator", {"samples": 2, "below": 3}),
    "processed-testpoints-wrong-type": _put("processed_testpoints", "abc"),
    "processed-testpoints-nan": _put("processed_testpoints", _NAN),
    "start-time-wrong-type": _put("start_time", "noon"),
    "start-time-nan": _put("start_time", _NAN),
    "runtime-wrong-type": _put("runtime", "abc"),
    "runtime-interval-start-nan": _put("runtime", "interval_start", _NAN),
    "runtime-resume-at-inf": _put("runtime", "resume_at", math.inf),
    "runtime-last-arrival-wrong-type": _put("runtime", "last_arrival", "now"),
    "runtime-discard-reason-wrong-type": _put("runtime", "discard_next", 7),
    "runtime-counters-wrong-type": _put("runtime", "last_counters", [1.0]),
    "runtime-counters-nan": _put("runtime", "last_counters", "1", [1.0, _NAN]),
    "runtime-counters-wrong-arity": _put("runtime", "last_counters", "1", [1.0]),
    "runtime-counters-not-numbers": _put("runtime", "last_counters", "0", ["abc"]),
}


class TestRejectedSnapshotChangesNothing:
    """``import_state`` checks every section before it changes anything."""

    @staticmethod
    def _heir(config: MannersConfig) -> ThreadRegulator:
        # Already running: a partial import would add set 1, replace set
        # 0's calibration, or raise the processed count past its own.
        heir = ThreadRegulator(config)
        drive(heir, ManualClock(), rate=40.0, steps=12)
        return heir

    def test_the_uncorrupted_snapshot_imports_and_round_trips(self, fast_config):
        snapshot = two_set_snapshot(fast_config)
        heir = self._heir(fast_config)
        heir.import_state(copy.deepcopy(snapshot))
        assert heir.metric_set_indices() == (0, 1)
        clone = ThreadRegulator(fast_config)
        clone.import_state(snapshot)
        assert json.dumps(clone.export_state(include_runtime=True), sort_keys=True) == (
            json.dumps(snapshot, sort_keys=True)
        )

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
    def test_corrupted_section_raises_and_changes_nothing(self, fast_config, corrupt):
        corrupted = corrupt(two_set_snapshot(fast_config))
        heir = self._heir(fast_config)
        before = heir.export_state(include_runtime=True)
        indices = heir.metric_set_indices()
        with pytest.raises(MannersError):
            heir.import_state(corrupted)
        assert heir.export_state(include_runtime=True) == before
        assert heir.metric_set_indices() == indices
