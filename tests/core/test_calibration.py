"""Target calibrators and the median correction."""

from __future__ import annotations

import random

import pytest

from repro.core.calibration import (
    MedianScale,
    SingleMetricCalibrator,
    make_calibrator,
)
from repro.core.config import MannersConfig
from repro.core.errors import MetricError
from repro.core.regression import RidgeCalibrator


class TestMedianScale:
    def test_starts_neutral(self):
        assert MedianScale().scale == 1.0

    def test_moves_up_when_samples_run_long(self):
        ms = MedianScale()
        for _ in range(50):
            ms.observe(duration=1.2, predicted=1.0)
        assert ms.scale > 1.1

    def test_moves_down_when_samples_run_short(self):
        ms = MedianScale()
        for _ in range(50):
            ms.observe(duration=0.8, predicted=1.0)
        assert ms.scale < 0.9

    def test_bounded(self):
        ms = MedianScale(bounds=(0.5, 1.5))
        for _ in range(1000):
            ms.observe(2.0, 1.0)
        assert ms.scale <= 1.5
        for _ in range(1000):
            ms.observe(0.1, 1.0)
        assert ms.scale >= 0.5

    def test_converges_to_target_quantile(self):
        """The factor settles where ~1/3 of samples are below target."""
        rng = random.Random(9)
        ms = MedianScale(eta=0.01, bounds=(0.25, 4.0))
        # Warm in on a uniform ratio distribution over [0.5, 1.5].
        ratios = []
        below = 0
        for i in range(20_000):
            r = rng.uniform(0.5, 1.5)
            if i >= 10_000:
                ratios.append(r)
                if r > ms.scale:
                    below += 1
            ms.observe(r, 1.0)
        fraction_below = below / len(ratios)
        assert fraction_below == pytest.approx(1.0 / 3.0, abs=0.08)

    def test_ignores_degenerate_samples(self):
        ms = MedianScale()
        ms.observe(0.0, 1.0)
        ms.observe(1.0, 0.0)
        assert ms.scale == 1.0

    def test_state_round_trip(self):
        ms = MedianScale()
        for _ in range(20):
            ms.observe(1.5, 1.0)
        other = MedianScale()
        other.import_state(ms.export_state())
        assert other.scale == ms.scale

    def test_import_clamps(self):
        ms = MedianScale(bounds=(0.5, 1.5))
        ms.import_state(9.0)
        assert ms.scale == 1.5

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "fast", None])
    def test_import_rejects_a_factor_that_is_not_a_finite_number(self, value):
        # A NaN factor made every target duration NaN; a string raised a
        # plain ValueError.
        ms = MedianScale()
        ms.observe(1.5, 1.0)
        before = ms.scale
        with pytest.raises(MetricError, match="median scale"):
            ms.import_state(value)
        assert ms.scale == before

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MedianScale(eta=0.0)
        with pytest.raises(ValueError):
            MedianScale(bounds=(1.2, 1.5))


class TestSingleMetricCalibrator:
    def test_learns_constant_rate(self):
        cal = SingleMetricCalibrator(window=50)
        for _ in range(100):
            cal.update(0.1, [25.0])  # 250 units/s
        assert cal.target_rate == pytest.approx(250.0)
        assert cal.target_duration([50.0]) == pytest.approx(0.2, rel=0.1)

    def test_zero_duration_is_ignored(self):
        cal = SingleMetricCalibrator(window=50)
        cal.update(0.0, [5.0])
        assert cal.sample_count == 0

    def test_rejects_wrong_arity(self):
        cal = SingleMetricCalibrator(window=50)
        with pytest.raises(MetricError):
            cal.update(1.0, [1.0, 2.0])
        with pytest.raises(MetricError):
            cal.target_duration([1.0, 2.0])

    def test_rejects_negative_progress(self):
        cal = SingleMetricCalibrator(window=50)
        with pytest.raises(MetricError):
            cal.update(1.0, [-1.0])

    def test_uncalibrated_target_duration_is_zero(self):
        assert SingleMetricCalibrator(window=10).target_duration([5.0]) == 0.0

    def test_state_round_trip(self):
        cal = SingleMetricCalibrator(window=50)
        for _ in range(60):
            cal.update(0.1, [10.0])
        clone = SingleMetricCalibrator(window=50)
        clone.import_state(cal.export_state())
        assert clone.target_rate == pytest.approx(cal.target_rate)

    def test_import_empty_state_is_noop(self):
        cal = SingleMetricCalibrator(window=50)
        cal.import_state({})
        assert cal.target_rate is None

    @pytest.mark.parametrize("factor", [float("nan"), "fast"])
    def test_import_rejects_bad_median_scale_unchanged(self, factor):
        cal = SingleMetricCalibrator(window=10)
        for _ in range(5):
            cal.update(1.0, [100.0])
        state = cal.export_state()
        before = cal.export_state()
        state.update(rate=50.0, samples=2, median_scale=factor)
        with pytest.raises(MetricError, match="median scale"):
            cal.import_state(state)
        assert cal.export_state() == before

    def test_import_rejects_bad_rate(self):
        cal = SingleMetricCalibrator(window=50)
        with pytest.raises(MetricError):
            cal.import_state({"rate": float("nan")})


class TestFactory:
    def test_single_metric_uses_averaging(self):
        cfg = MannersConfig()
        assert isinstance(make_calibrator(1, cfg), SingleMetricCalibrator)

    def test_multi_metric_uses_regression(self):
        cfg = MannersConfig()
        cal = make_calibrator(3, cfg)
        assert isinstance(cal, RidgeCalibrator)
        assert cal.arity == 3

    def test_zero_arity_rejected(self):
        with pytest.raises(MetricError):
            make_calibrator(0, MannersConfig())
