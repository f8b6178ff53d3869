"""Progress-metric sanity checking (section 11 extension)."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ConfigError, MetricError
from repro.core.sanity import ProgressSanityChecker


def feed_honest(checker, rng, windows=100, cost=0.001):
    """Honest windows: usage proportional to progress (+noise)."""
    for _ in range(windows):
        progress = rng.uniform(10.0, 100.0)
        usage = progress * cost * rng.uniform(0.8, 1.2)
        checker.observe(progress, usage)


class TestBaseline:
    def test_learns_cost_model(self):
        checker = ProgressSanityChecker()
        rng = random.Random(1)
        feed_honest(checker, rng, windows=60)
        assert checker.ready
        # ~1000 units of progress per unit of usage.
        assert checker.baseline_progress_per_resource == pytest.approx(1000.0, rel=0.2)

    def test_not_ready_before_min_samples(self):
        checker = ProgressSanityChecker(min_samples=16)
        checker.observe(10.0, 0.01)
        assert not checker.ready
        assert not checker.suspicious

    def test_zero_progress_windows_pass(self):
        checker = ProgressSanityChecker()
        verdict = checker.observe(0.0, 5.0)
        assert not verdict.implausible

    def test_vector_progress_summed(self):
        checker = ProgressSanityChecker()
        rng = random.Random(2)
        for _ in range(40):
            checker.observe([5.0, 15.0], 0.02)
        assert checker.baseline_progress_per_resource == pytest.approx(1000.0, rel=0.1)


class TestDetection:
    def test_honest_app_stays_unsuspicious(self):
        checker = ProgressSanityChecker()
        rng = random.Random(3)
        feed_honest(checker, rng, windows=300)
        assert not checker.suspicious
        assert checker.suspicion < 0.1

    def test_counter_inflation_detected(self):
        """A malicious app reporting 10x progress for the same usage."""
        checker = ProgressSanityChecker()
        rng = random.Random(4)
        feed_honest(checker, rng, windows=100)
        for _ in range(60):
            progress = rng.uniform(10.0, 100.0) * 10.0  # inflated
            usage = (progress / 10.0) * 0.001
            verdict = checker.observe(progress, usage)
        assert verdict.implausible
        assert checker.suspicious

    def test_cheater_cannot_poison_baseline(self):
        """Implausible windows must not teach the checker the inflated
        cost model."""
        checker = ProgressSanityChecker()
        rng = random.Random(5)
        feed_honest(checker, rng, windows=100)
        baseline_before = checker.baseline_progress_per_resource
        for _ in range(200):
            checker.observe(1000.0, 0.0001)  # wildly inflated
        assert checker.baseline_progress_per_resource == pytest.approx(
            baseline_before, rel=0.05
        )
        assert checker.suspicious

    def test_genuinely_cheaper_work_is_absorbed(self):
        """A modest, real efficiency gain (2x) is below the threshold and
        gradually becomes the new baseline — not an accusation."""
        checker = ProgressSanityChecker(ratio_threshold=4.0)
        rng = random.Random(6)
        feed_honest(checker, rng, windows=100, cost=0.001)
        for _ in range(400):
            feed_honest(checker, rng, windows=1, cost=0.0005)
        assert not checker.suspicious
        assert checker.baseline_progress_per_resource > 1500.0

    def test_suspicion_decays_after_episode(self):
        checker = ProgressSanityChecker()
        rng = random.Random(7)
        feed_honest(checker, rng, windows=100)
        for _ in range(60):
            checker.observe(5000.0, 0.0001)
        assert checker.suspicious
        feed_honest(checker, rng, windows=300)
        assert not checker.suspicious


class TestValidation:
    def test_threshold_domain(self):
        with pytest.raises(ConfigError):
            ProgressSanityChecker(ratio_threshold=1.0)
        with pytest.raises(ConfigError):
            ProgressSanityChecker(suspicion_threshold=0.0)
        with pytest.raises(ConfigError):
            ProgressSanityChecker(min_samples=1)

    def test_rejects_bad_inputs(self):
        checker = ProgressSanityChecker()
        with pytest.raises(MetricError):
            checker.observe(-1.0, 1.0)
        with pytest.raises(MetricError):
            checker.observe(1.0, float("nan"))
