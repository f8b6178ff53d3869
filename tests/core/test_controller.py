"""The per-thread regulation state machine."""

from __future__ import annotations

import pytest

from repro.core.clock import ManualClock
from repro.core.config import MannersConfig
from repro.core.controller import ThreadRegulator
from repro.core.errors import MetricError
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
