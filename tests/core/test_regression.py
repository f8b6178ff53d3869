"""Ridge regression over decayed sufficient statistics (section 6.3)."""

from __future__ import annotations

import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.regression as regression
from repro.core.calibration import MedianScale
from repro.core.clock import ManualClock
from repro.core.controller import ThreadRegulator
from repro.core.errors import ConfigError, MetricError
from repro.core.regression import RidgeCalibrator


def _feed(cal: RidgeCalibrator, rng: random.Random, costs, samples: int, noise: float = 0.0):
    """Feed samples generated from the linear model d = costs . dp."""
    for _ in range(samples):
        dp = [rng.uniform(0.0, 10.0) for _ in costs]
        d = sum(c * p for c, p in zip(costs, dp))
        if noise:
            d *= 1.0 + rng.gauss(0.0, noise)
        cal.update(max(d, 0.0), dp)


class TestRecovery:
    def test_recovers_single_metric_rate(self):
        cal = RidgeCalibrator(1, theta=0.99)
        rng = random.Random(1)
        _feed(cal, rng, [0.004], samples=500)  # 250 units/second
        assert cal.rates()[0] == pytest.approx(250.0, rel=0.05)

    def test_recovers_two_independent_metrics(self):
        cal = RidgeCalibrator(2, theta=0.995)
        rng = random.Random(2)
        _feed(cal, rng, [0.01, 0.002], samples=2000)
        c = cal.coefficients()
        # The ridge offset (nu = 0.1) deliberately perturbs the solution
        # (the paper accepts an order-of-magnitude-of-round-off error), so
        # the *split* between metrics is approximate...
        assert c[0] == pytest.approx(0.01, rel=0.25)
        assert c[1] == pytest.approx(0.002, rel=0.6)
        # ...but predicted durations must stay accurate.
        assert cal.target_duration([5.0, 5.0]) == pytest.approx(
            5.0 * 0.012, rel=0.1
        )

    def test_paper_worked_example(self):
        """Section 4.4: 750 kB/s scanning + 120 indices/s."""
        cal = RidgeCalibrator(2, theta=0.995)
        rng = random.Random(3)
        scan_cost = 1.0 / 750_000.0
        index_cost = 1.0 / 120.0
        for _ in range(3000):
            kb = rng.uniform(10_000, 100_000)
            idx = rng.uniform(0, 20)
            cal.update(kb * scan_cost + idx * index_cost, [kb, idx])
        # 60 kB + 5 indices should take ~80 + ~42 = ~122 ms.
        assert cal.target_duration([60_000, 5]) == pytest.approx(0.1217, rel=0.05)

    def test_correlated_metrics_stay_stable(self):
        """Perfectly collinear metrics must not blow up (ridge, Eq. 13-14)."""
        cal = RidgeCalibrator(2, theta=0.99, nu=0.1)
        rng = random.Random(4)
        for _ in range(1000):
            ops = rng.uniform(1, 10)
            cal.update(0.01 * ops, [ops, ops * 65536.0])  # bytes = 64K * ops
        c = cal.coefficients()
        assert np.isfinite(c).all()
        # Whatever the split, predicted durations must match reality.
        assert cal.target_duration([4.0, 4.0 * 65536.0]) == pytest.approx(0.04, rel=0.05)

    def test_aggregate_scale_is_pinned(self):
        """Predicted total duration tracks observed total (bias control)."""
        cal = RidgeCalibrator(2, theta=0.999, nu=0.1)
        rng = random.Random(5)
        total_d = 0.0
        total_dp = np.zeros(2)
        for _ in range(800):
            dp = np.array([rng.uniform(1, 5), rng.uniform(0, 3)])
            d = 0.02 * dp[0] + 0.05 * dp[1]
            d *= 1.0 + rng.gauss(0, 0.2)
            d = max(d, 1e-6)
            cal.update(d, dp)
            total_d += d
            total_dp += dp
        c = cal.coefficients()
        # Mean predicted vs mean observed within a few percent.
        assert float(np.dot(c, total_dp)) == pytest.approx(total_d, rel=0.1)


class TestValidationAndState:
    def test_arity_checked(self):
        cal = RidgeCalibrator(2, theta=0.9)
        with pytest.raises(MetricError):
            cal.update(1.0, [1.0])
        with pytest.raises(MetricError):
            cal.target_duration([1.0, 2.0, 3.0])

    def test_negative_inputs_rejected(self):
        cal = RidgeCalibrator(1, theta=0.9)
        with pytest.raises(MetricError):
            cal.update(-1.0, [1.0])
        with pytest.raises(MetricError):
            cal.update(1.0, [-1.0])

    def test_constructor_validation(self):
        with pytest.raises(MetricError):
            RidgeCalibrator(0, theta=0.9)
        with pytest.raises(ConfigError):
            RidgeCalibrator(1, theta=1.0)
        with pytest.raises(ConfigError):
            RidgeCalibrator(1, theta=0.9, nu=-1.0)

    def test_before_any_sample(self):
        cal = RidgeCalibrator(2, theta=0.9)
        assert cal.target_duration([1.0, 1.0]) == 0.0
        assert all(c == 0.0 for c in cal.coefficients())

    def test_state_round_trip(self):
        cal = RidgeCalibrator(2, theta=0.99)
        rng = random.Random(6)
        _feed(cal, rng, [0.01, 0.002], samples=400)
        state = cal.export_state()
        clone = RidgeCalibrator(2, theta=0.99)
        clone.import_state(state)
        probe = [3.0, 7.0]
        assert clone.target_duration(probe) == pytest.approx(
            cal.target_duration(probe)
        )

    def test_import_rejects_wrong_arity(self):
        cal = RidgeCalibrator(2, theta=0.99)
        state = cal.export_state()
        other = RidgeCalibrator(3, theta=0.99)
        with pytest.raises(MetricError):
            other.import_state(state)

    def test_import_rejects_non_finite(self):
        cal = RidgeCalibrator(1, theta=0.9)
        with pytest.raises(MetricError):
            cal.import_state({"x": [[float("nan")]], "y": [0.0]})


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=4),
        st.integers(0, 10_000),
    )
    def test_rates_always_positive_finite_costs(self, costs, seed):
        cal = RidgeCalibrator(len(costs), theta=0.99)
        rng = random.Random(seed)
        _feed(cal, rng, costs, samples=150, noise=0.1)
        c = cal.coefficients()
        assert all(math.isfinite(ci) for ci in c)
        assert all(ci >= 0.0 for ci in c)
        rates = cal.rates()
        assert all(r > 0 for r in rates)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_target_duration_linear_in_deltas(self, seed):
        cal = RidgeCalibrator(2, theta=0.99)
        rng = random.Random(seed)
        _feed(cal, rng, [0.01, 0.03], samples=100, noise=0.05)
        a = cal.target_duration([1.0, 2.0])
        b = cal.target_duration([2.0, 4.0])
        assert b == pytest.approx(2.0 * a, rel=1e-9)


class TestImportRejectsCorruptState:
    """State ``update`` could not have produced is refused, atomically."""

    def _fed(self) -> RidgeCalibrator:
        cal = RidgeCalibrator(2, theta=0.99)
        _feed(cal, random.Random(8), [0.01, 0.002], samples=50)
        return cal

    def _assert_rejected(self, mutate) -> None:
        cal = self._fed()
        before = cal.export_state()
        state = cal.export_state()
        mutate(state)
        with pytest.raises(MetricError):
            cal.import_state(state)
        assert cal.export_state() == before

    def test_nan_sum_d(self):
        self._assert_rejected(lambda s: s.update(sum_d=float("nan")))

    def test_nan_median_scale(self):
        # Restored as is, it made every target duration NaN.
        self._assert_rejected(lambda s: s.update(median_scale=float("nan")))

    def test_non_numeric_median_scale_leaves_statistics_unchanged(self):
        # It raised only after x, y and count had been replaced.
        self._assert_rejected(
            lambda s: s.update(x=[[2.0, 1.0], [1.0, 2.0]], count=3, median_scale="1.2x")
        )

    def test_negative_sum_d(self):
        self._assert_rejected(lambda s: s.update(sum_d=-1.0))

    def test_negative_count(self):
        self._assert_rejected(lambda s: s.update(count=-1))

    def test_negative_diagonal(self):
        def mutate(state):
            state["x"][1][1] = -state["x"][1][1]

        self._assert_rejected(mutate)

    def test_asymmetric_x(self):
        def mutate(state):
            state["x"][0][1] *= 1.5

        self._assert_rejected(mutate)


#: Agreement required between the calibrator and the numpy reference.
REFERENCE_REL = 1e-9


class _NumpyReference:
    """The calibrator's former numpy formulation, kept as a test oracle.

    Standardized ridge, ``np.linalg.solve`` with the ``lstsq`` fallback,
    non-negative clamp and aggregate pin, plus the median correction.
    """

    def __init__(self, arity: int, theta: float, nu: float) -> None:
        self.theta = theta
        self.nu = nu
        self.x = np.zeros((arity, arity))
        self.y = np.zeros(arity)
        self.sum_dp = np.zeros(arity)
        self.sum_d = 0.0
        self.count = 0
        self.median = MedianScale()
        self.lstsq_calls = 0

    def update(self, duration: float, deltas) -> None:
        dp = np.asarray(deltas, dtype=float)
        self.median.observe(duration, float(np.dot(self.coefficients(), dp)))
        self.x *= self.theta
        self.y *= self.theta
        self.sum_dp *= self.theta
        self.x += np.outer(dp, dp)
        self.y += duration * dp
        self.sum_dp += dp
        self.sum_d = self.theta * self.sum_d + duration
        self.count += 1

    def coefficients(self) -> np.ndarray:
        arity = len(self.y)
        diag = np.abs(np.diagonal(self.x))
        if self.count == 0 or diag.max() <= 0.0:
            return np.zeros(arity)
        scale = np.where(diag > 0.0, np.sqrt(diag), 1.0)
        a = self.x / np.outer(scale, scale)
        a[np.diag_indices_from(a)] += self.nu
        b = self.y / scale
        try:
            c = np.linalg.solve(a, b) / scale
        except np.linalg.LinAlgError:
            self.lstsq_calls += 1
            c = np.linalg.lstsq(a, b, rcond=None)[0] / scale
        c = np.maximum(c, 0.0)
        predicted = float(np.dot(c, self.sum_dp))
        if predicted > 0.0 and self.sum_d > 0.0:
            c *= self.sum_d / predicted
        return c

    def target_duration(self, deltas) -> float:
        dp = np.asarray(deltas, dtype=float)
        return float(np.dot(self.coefficients(), dp)) * self.median.scale


def _reference_stream(kind: str, arity: int, seed: int, samples: int = 300):
    """Seeded (duration, deltas) samples of one of four shapes.

    ``independent``: metrics of unrelated magnitudes.  ``correlated``: every
    metric follows the first to within 1%.  ``collinear``: metric k is the
    first or second base counter times ``2**k``, so the standardized matrix
    is exactly singular.  ``stalled``: the last metric never moves.
    """
    rng = random.Random(seed)
    magnitudes = [10.0 ** rng.randint(0, 5) for _ in range(arity)]
    costs = [rng.uniform(1e-3, 1e-1) / m for m in magnitudes]
    for _ in range(samples):
        base = [rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)]
        if kind == "independent":
            dp = [rng.uniform(0.0, 10.0) * m for m in magnitudes]
        elif kind == "correlated":
            dp = [base[0] * m * (1.0 + rng.gauss(0.0, 0.01)) for m in magnitudes]
        elif kind == "collinear":
            dp = [base[k * 2 // (arity + 1)] * 2.0**k for k in range(arity)]
        else:  # stalled
            dp = [rng.uniform(0.0, 10.0) * m for m in magnitudes[:-1]] + [0.0]
        d = sum(c * p for c, p in zip(costs, dp)) * (1.0 + rng.gauss(0.0, 0.1))
        yield max(d, 0.0), dp


class TestAgainstNumpyReference:
    """Differential test: pure-Python solve vs the numpy formulation.

    Without the ridge offset (``nu = 0``) only exactly singular systems are
    compared.  A nearly singular one — fewer samples than metrics, say —
    has no well-defined answer, and both solvers return rounding noise.
    """

    @pytest.mark.parametrize(
        "kind, nu, arity",
        [
            (kind, nu, arity)
            for kind, nu, arities in (
                ("independent", 0.1, (1, 2, 3, 4)),
                ("correlated", 0.1, (1, 2, 3, 4)),
                ("collinear", 0.1, (2, 3, 4)),
                ("collinear", 0.0, (2, 3, 4)),
                ("stalled", 0.0, (2, 3, 4)),
            )
            for arity in arities
        ],
    )
    def test_matches_reference(self, kind, nu, arity):
        cal = RidgeCalibrator(arity, theta=0.99, nu=nu)
        ref = _NumpyReference(arity, theta=0.99, nu=nu)
        for duration, dp in _reference_stream(kind, arity, seed=100 * arity + len(kind)):
            cal.update(duration, dp)
            ref.update(duration, dp)
            state = cal.export_state()
            # The statistics follow numpy's operation order bit for bit.
            assert state["x"] == ref.x.tolist()
            assert state["y"] == ref.y.tolist()
            assert state["sum_dp"] == ref.sum_dp.tolist()
            assert state["sum_d"] == ref.sum_d
            expected = ref.coefficients().tolist()
            tol = REFERENCE_REL * max(expected)
            assert list(cal.coefficients()) == pytest.approx(
                expected, rel=REFERENCE_REL, abs=tol
            )
            assert cal.target_duration(dp) == pytest.approx(
                ref.target_duration(dp), rel=REFERENCE_REL
            )
        if nu == 0.0:
            # The stream really exercised the singular fallback.
            assert ref.lstsq_calls > 0


class TestSolveMemo:
    """The ridge system is solved at most once per calibrator state."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = {"n": 0}
        real = regression._solve

        def counting(m):
            calls["n"] += 1
            return real(m)

        monkeypatch.setattr(regression, "_solve", counting)
        return calls

    def test_regulator_solves_at_most_once_per_sample(self, solves, fast_config):
        clock = ManualClock()
        reg = ThreadRegulator(fast_config)
        rng = random.Random(11)
        counters = [0.0, 0.0]
        for step in range(600):
            slowdown = 4.0 if 200 <= step < 300 else 1.0
            blocks = rng.randint(8, 120)
            work = (0.0178 + 0.000853 * blocks) * rng.lognormvariate(0.0, 0.08)
            clock.advance(work * slowdown)
            counters = [counters[0] + 1.0, counters[1] + blocks]
            decision = reg.on_testpoint(clock.now(), 0, counters)
            clock.advance(decision.delay)
        updates = reg.calibrator(0).sample_count
        assert reg.stats.poor_judgments > 0 and reg.stats.good_judgments > 0
        assert 0 < solves["n"] <= updates + 1

    def test_update_invalidates(self, solves):
        cal = RidgeCalibrator(2, theta=0.99)
        _feed(cal, random.Random(13), [0.01, 0.002], samples=20)
        before = cal.coefficients()
        solves["n"] = 0
        cal.update(0.5, [3.0, 40.0])
        after = cal.coefficients()
        assert solves["n"] == 1
        assert after != before

    def test_import_state_invalidates(self, solves):
        cal = RidgeCalibrator(2, theta=0.99)
        _feed(cal, random.Random(14), [0.01, 0.002], samples=20)
        other = RidgeCalibrator(2, theta=0.99)
        _feed(other, random.Random(15), [0.03, 0.001], samples=20)
        expected = other.coefficients()
        cal.coefficients()
        solves["n"] = 0
        cal.import_state(other.export_state())
        assert cal.coefficients() == expected
        assert solves["n"] == 1

    def test_returned_values_cannot_alter_later_results(self):
        cal = RidgeCalibrator(2, theta=0.99)
        _feed(cal, random.Random(16), [0.01, 0.002], samples=20)
        probe = [3.0, 7.0]
        expected = cal.target_duration(probe)
        c = cal.coefficients()
        with pytest.raises(TypeError):
            c[0] = 1.0  # type: ignore[index]
        with pytest.raises(TypeError):
            cal.rates()[0] = 1.0  # type: ignore[index]
        snapshot = copy.deepcopy(cal.export_state())
        state = cal.export_state()
        state["x"][0][0] = 1e9
        state["y"][0] = 1e9
        state["sum_dp"][0] = 1e9
        assert cal.export_state() == snapshot
        assert cal.target_duration(probe) == expected
        twin = RidgeCalibrator(2, theta=0.99)
        twin.import_state(snapshot)
        for target in (cal, twin):
            target.update(0.5, [3.0, 40.0])
        assert cal.target_duration(probe) == twin.target_duration(probe)
