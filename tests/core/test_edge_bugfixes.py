"""Regression tests for the PR-4 edge-case bugfix sweep.

Every test here fails against the pre-fix code:

* The regulator's zero-elapsed guard tested ``duration <= 0``, so
  sub-epsilon durations passed it and manufactured absurd finite rates
  (~5e297) that the calibrator folded into its target.
* ``ExponentialAverager``/``SingleMetricCalibrator`` snapshots dropped the
  warm-up sample count, so a restored calibrator re-entered arithmetic
  warm-up and its post-restore updates diverged from the original's.
* ``SuspensionTimer`` had no persistence at all: restored regulators
  restarted the backoff schedule from ``initial``.
* ``expected_suspension``/``simulate_judgment_chain`` computed
  ``initial * 2.0 ** k`` directly — an :class:`OverflowError` for
  ``k >= 1024`` — and the chain simulator drew from the shared
  module-level ``random`` stream when no RNG was passed.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.averaging import ExponentialAverager
from repro.core.calibration import SingleMetricCalibrator
from repro.core.config import DEFAULT_CONFIG
from repro.core.controller import MIN_MEASURABLE_DURATION, ThreadRegulator
from repro.core.errors import ConfigError, MetricError
from repro.core.queueing import (
    derive_chain_rng,
    expected_suspension,
    simulate_judgment_chain,
)
from repro.core.suspension import SuspensionTimer, capped_backoff


class TestRateZeroDurationContract:
    """No rate is measured over an unmeasurable interval (§4.1).

    ``ThreadRegulator.on_testpoint`` discards a sample whose duration is at
    or below :data:`MIN_MEASURABLE_DURATION` as ``zero_elapsed``: it is
    neither calibrated nor judged.  Exact zeros were discarded before the
    fix as well; the sub-epsilon and boundary cases fail against it.
    """

    @staticmethod
    def _regulator():
        config = DEFAULT_CONFIG.with_overrides(
            bootstrap_testpoints=6, min_testpoint_interval=0.0
        )
        regulator = ThreadRegulator(config=config)
        regulator.on_testpoint(0.0, 0, (0.0,))
        return regulator

    def _second(self, now, progress):
        regulator = self._regulator()
        return regulator, regulator.on_testpoint(now, 0, (progress,))

    def test_zero_progress_zero_time_discarded(self):
        regulator, decision = self._second(0.0, 0.0)
        assert decision.processed
        assert decision.anomaly == "zero_elapsed"
        assert not decision.calibrated
        assert regulator.stats.zero_elapsed_discards == 1

    def test_progress_in_zero_time_is_discarded(self):
        regulator, decision = self._second(0.0, 5.0)
        assert decision.anomaly == "zero_elapsed"
        assert decision.deltas == (5.0,)
        assert regulator.calibrator(0).sample_count == 0

    def test_negative_zero_duration_matches_positive_zero(self):
        # 0.0 after a priming call at 0.0 gives a duration of +0.0; -0.0
        # gives max(-0.0, 0.0), which is -0.0.
        positive, at_positive = self._second(0.0, 5.0)
        negative, at_negative = self._second(-0.0, 5.0)
        assert at_negative == at_positive
        assert at_negative.anomaly == "zero_elapsed"
        assert negative.stats == positive.stats

    def test_sub_epsilon_duration_does_not_manufacture_finite_garbage(self):
        # Before the fix a half-epsilon interval was measured: 1e-20 units
        # over ~1.1e-16 s read as a legitimate-looking finite rate.
        tiny = MIN_MEASURABLE_DURATION / 2.0
        regulator, decision = self._second(tiny, 1e-20)
        assert decision.anomaly == "zero_elapsed"
        assert not decision.calibrated
        assert regulator.calibrator(0).sample_count == 0

    def test_epsilon_boundary_is_the_threshold(self):
        _, at = self._second(MIN_MEASURABLE_DURATION, 1.0)
        above_duration = math.nextafter(MIN_MEASURABLE_DURATION, 1.0)
        regulator, above = self._second(above_duration, 1.0)
        assert at.anomaly == "zero_elapsed"
        assert above.anomaly is None
        assert above.calibrated
        assert above.duration == above_duration
        assert regulator.calibrator(0).sample_count == 1

    def test_negative_duration_is_clock_backward(self):
        regulator, decision = self._second(-1.0, 1.0)
        assert decision.anomaly == "clock_backward"
        assert regulator.stats.clock_anomalies == 1
        assert regulator.calibrator(0).sample_count == 0

    def test_nan_duration_raises(self):
        regulator = self._regulator()
        with pytest.raises(MetricError, match="not finite"):
            regulator.on_testpoint(math.nan, 0, (1.0,))
        assert regulator.stats.testpoints == 1


class TestAveragerWarmupPersistence:
    """Satellite 2a: warm-up counts survive snapshots bit-identically."""

    def test_roundtrip_mid_warmup_matches_original_updates(self):
        original = ExponentialAverager(window=10)
        for value in (4.0, 6.0, 5.0):
            original.update(value)
        clone = ExponentialAverager(window=10)
        clone.import_state(original.export_state())
        # Pre-fix the clone seeded count=window and went straight to EWMA
        # weighting while the original was still in arithmetic warm-up.
        for value in (9.0, 2.0, 7.5, 3.25):
            assert original.update(value) == clone.update(value)
        assert original.export_state() == clone.export_state()

    def test_empty_averager_roundtrip(self):
        original = ExponentialAverager(window=10)
        clone = ExponentialAverager(window=10)
        clone.import_state(original.export_state())
        assert clone.value is None
        assert original.update(1.5) == clone.update(1.5)

    def test_import_rejects_garbage(self):
        averager = ExponentialAverager(window=10)
        with pytest.raises(MetricError):
            averager.import_state({"value": math.nan, "count": 3})
        with pytest.raises(MetricError):
            averager.import_state({"value": 1.0, "count": 0})

    def test_import_clamps_count_to_window(self):
        averager = ExponentialAverager(window=4)
        averager.import_state({"value": 2.0, "count": 999})
        reference = ExponentialAverager(window=4)
        for _ in range(50):
            reference.update(2.0)
        assert averager.update(6.0) == reference.update(6.0)


class TestCalibratorSamplePersistence:
    """Satellite 2b: calibrator snapshots carry the sample count."""

    def test_roundtrip_preserves_subsequent_targets(self):
        original = SingleMetricCalibrator(window=8)
        for dp in (10.0, 12.0, 11.0):
            original.update(1.0, (dp,))
        clone = SingleMetricCalibrator(window=8)
        clone.import_state(original.export_state())
        assert clone.sample_count == original.sample_count
        for dp in (14.0, 9.0, 13.0, 10.5):
            original.update(1.0, (dp,))
            clone.update(1.0, (dp,))
            assert original.target_duration((10.0,)) == clone.target_duration((10.0,))

    def test_legacy_snapshot_without_samples_still_imports(self):
        calibrator = SingleMetricCalibrator(window=8)
        calibrator.import_state({"rate": 42.0})
        # Legacy restart semantics: the rate carries full window weight.
        assert calibrator.sample_count == 8
        assert calibrator.target_duration((42.0,)) > 0.0

    def test_import_rejects_bad_sample_count(self):
        calibrator = SingleMetricCalibrator(window=8)
        state = {"rate": 1.0, "samples": 0}
        with pytest.raises(MetricError):
            calibrator.import_state(state)


class TestSuspensionTimerPersistence:
    """Satellite 3: saturation-safe timer snapshots and overflow-free law."""

    def test_roundtrip_preserves_saturation(self):
        timer = SuspensionTimer(initial=1.0, maximum=8.0)
        for _ in range(10):
            timer.on_poor()
        assert timer.saturated
        clone = SuspensionTimer(initial=1.0, maximum=8.0)
        clone.import_state(timer.export_state())
        assert clone.saturated
        assert clone.consecutive_poor == timer.consecutive_poor
        # Pre-fix the restored timer restarted at `initial`.
        assert clone.on_poor() == 8.0

    def test_good_after_restored_saturation_fully_resets(self):
        timer = SuspensionTimer(initial=1.0, maximum=8.0)
        for _ in range(10):
            timer.on_poor()
        clone = SuspensionTimer(initial=1.0, maximum=8.0)
        clone.import_state(timer.export_state())
        clone.on_good()
        assert clone.current == 1.0
        assert clone.consecutive_poor == 0
        assert clone.on_poor() == 1.0

    def test_import_clamps_into_configured_band(self):
        timer = SuspensionTimer(initial=2.0, maximum=16.0)
        timer.import_state({"current": 1e9, "consecutive_poor": 3})
        assert timer.current == 16.0
        timer.import_state({"current": 0.001, "consecutive_poor": 0})
        assert timer.current == 2.0

    def test_import_rejects_nan_and_negative_count(self):
        timer = SuspensionTimer()
        with pytest.raises(ConfigError):
            timer.import_state({"current": math.nan})
        with pytest.raises(ConfigError):
            timer.import_state({"current": 1.0, "consecutive_poor": -1})

    def test_capped_backoff_no_overflow_at_huge_k(self):
        # Pre-fix: 2.0 ** 2048 raised OverflowError.
        assert capped_backoff(1.0, 2048, 256.0) == 256.0
        assert capped_backoff(1.0, 5000, math.inf) == math.inf

    def test_capped_backoff_silent_float_overflow(self):
        # initial * 2**k overflows to inf before k hits 1024; must clamp.
        assert capped_backoff(1e300, 100, 1e308) == 1e308

    def test_capped_backoff_matches_naive_formula_in_range(self):
        for k in range(0, 60):
            assert capped_backoff(0.5, k, 1e12) == min(0.5 * 2.0**k, 1e12)


class TestQueueingOverflowAndRngIsolation:
    """Satellites 3+4: overflow-safe analytics, isolated chain RNG."""

    def test_expected_suspension_finite_at_huge_k_max(self):
        # Pre-fix: OverflowError from 2.0 ** k inside the sum.
        value = expected_suspension(0.05, 0.2, maximum=256.0, k_max=2048)
        assert math.isfinite(value) and value > 0.0

    def test_chain_survives_doubling_past_float_exponent_range(self):
        result = simulate_judgment_chain(
            0.999, 0.0005, judgments=1500, maximum=256.0, seed=9
        )
        assert math.isfinite(result.suspended_time)

    def test_seeded_chain_is_reproducible(self):
        a = simulate_judgment_chain(0.05, 0.2, judgments=200, seed=77)
        b = simulate_judgment_chain(0.05, 0.2, judgments=200, seed=77)
        assert a == b

    def test_distinct_seeds_diverge(self):
        a = simulate_judgment_chain(0.05, 0.2, judgments=200, seed=1)
        b = simulate_judgment_chain(0.05, 0.2, judgments=200, seed=2)
        assert a != b

    def test_seed_and_rng_are_mutually_exclusive(self):
        import random

        with pytest.raises(ValueError):
            simulate_judgment_chain(
                0.05, 0.2, judgments=10, rng=random.Random(1), seed=1
            )

    def test_derive_chain_rng_is_seed_stable(self):
        assert derive_chain_rng(5).random() == derive_chain_rng(5).random()
        assert derive_chain_rng(5).random() != derive_chain_rng(6).random()

    def test_chain_does_not_touch_module_level_random(self):
        # Pre-fix, an unseeded call consumed the shared `random` stream:
        # identical global seeds produced different follow-on draws.
        import random

        random.seed(123)
        simulate_judgment_chain(0.05, 0.2, judgments=50, seed=4)
        after_chain = random.random()
        random.seed(123)
        assert random.random() == after_chain


class TestControllerStateRoundtrip:
    """Satellite 2c: a restored regulator replays the verdict stream."""

    @staticmethod
    def _config():
        return DEFAULT_CONFIG.with_overrides(
            bootstrap_testpoints=6, min_testpoint_interval=0.0
        )

    @staticmethod
    def _drive(regulator, now, progress, steps, honour=True):
        decisions = []
        for i in range(steps):
            progress += 10.0 + (i % 4)
            decision = regulator.on_testpoint(now, 0, (progress,))
            decisions.append(decision)
            now += (decision.delay if honour else 0.0) + 0.5
        return decisions, now, progress

    def test_mid_stream_roundtrip_replays_identically(self):
        original = ThreadRegulator(config=self._config(), start_time=0.0)
        _, now, progress = self._drive(original, 0.0, 0.0, 40)

        snapshot = original.export_state(include_runtime=True)
        assert json.loads(json.dumps(snapshot)) == snapshot  # strictly JSON-safe
        clone = ThreadRegulator(config=self._config())
        clone.import_state(snapshot)

        expected, _, _ = self._drive(original, now, progress, 40)
        actual, _, _ = self._drive(clone, now, progress, 40)
        assert expected == actual

    def test_runtime_snapshot_roundtrips_bit_identically(self):
        regulator = ThreadRegulator(config=self._config(), start_time=0.0)
        self._drive(regulator, 0.0, 0.0, 25)
        snapshot = regulator.export_state(include_runtime=True)
        clone = ThreadRegulator(config=self._config())
        clone.import_state(snapshot)
        assert json.dumps(clone.export_state(include_runtime=True), sort_keys=True) == (
            json.dumps(snapshot, sort_keys=True)
        )

    def test_legacy_bare_sets_snapshot_still_skips_bootstrap(self):
        regulator = ThreadRegulator(config=self._config(), start_time=0.0)
        self._drive(regulator, 0.0, 0.0, 30)
        legacy = {"sets": regulator.export_state()["sets"]}
        clone = ThreadRegulator(config=self._config(), start_time=0.0)
        clone.import_state(legacy)
        assert (
            clone.export_state()["processed_testpoints"]
            >= self._config().bootstrap_testpoints
        )

    def test_suspension_saturation_survives_regulator_roundtrip(self):
        regulator = ThreadRegulator(config=self._config(), start_time=0.0)
        self._drive(regulator, 0.0, 0.0, 10)
        for _ in range(20):
            regulator._suspension.on_poor()
        snapshot = regulator.export_state(include_runtime=True)
        clone = ThreadRegulator(config=self._config())
        clone.import_state(snapshot)
        assert clone._suspension.current == regulator._suspension.current
        assert (
            clone._suspension.consecutive_poor
            == regulator._suspension.consecutive_poor
        )
