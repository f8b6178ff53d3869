"""Bit-exact differential tests of the testpoint path's arithmetic.

The ridge calibrator, its solver and the regulator's counter validation
were rewritten for speed with a promise: the same IEEE operations in the
same order, so the same floats, and the same errors.  The references below
are the implementations from before that rewrite, kept verbatim apart from
telemetry.  Results are compared by ``repr``, which also tells ``-0.0``
from ``0.0`` and treats every NaN alike.
"""

from __future__ import annotations

import math
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.calibration import MedianScale
from repro.core.config import MannersConfig
from repro.core.controller import ThreadRegulator
from repro.core.errors import MetricError
from repro.core.regression import RidgeCalibrator, _min_norm_solve, _solve


def _ref_dot(u: Sequence[float], v: Sequence[float]) -> float:
    total = 0.0
    for ui, vi in zip(u, v):
        total += ui * vi
    return total


def _ref_solve(a: list[list[float]], b: list[float]) -> list[float]:
    n = len(b)
    m = [row + [bi] for row, bi in zip(a, b)]
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(m[i][k]) > abs(m[p][k]):
                p = i
        m[k], m[p] = m[p], m[k]
        pivot_row = m[k]
        pivot = pivot_row[k]
        if pivot == 0.0:
            return _min_norm_solve(a, b)
        for row in m[k + 1:]:
            f = row[k] / pivot
            for j in range(k + 1, n + 1):
                row[j] -= f * pivot_row[j]
    z = [0.0] * n
    for k in range(n - 1, -1, -1):
        row = m[k]
        s = row[n]
        for j in range(k + 1, n):
            s -= row[j] * z[j]
        z[k] = s / row[k]
    return z


class _ReferenceRidge:
    """The ridge calibrator before its fast path."""

    def __init__(self, arity: int, theta: float, nu: float) -> None:
        self._arity = arity
        self._theta = theta
        self._nu = nu
        self._x = [[0.0] * arity for _ in range(arity)]
        self._y = [0.0] * arity
        self._sum_dp = [0.0] * arity
        self._sum_d = 0.0
        self._count = 0
        self._coefficients = None
        self._median = MedianScale()

    def export_state(self) -> dict:
        return {
            "x": [row[:] for row in self._x],
            "y": self._y[:],
            "sum_dp": self._sum_dp[:],
            "sum_d": self._sum_d,
            "count": self._count,
            "median_scale": self._median.export_state(),
        }

    def update(self, duration: float, deltas: Sequence[float]) -> None:
        if len(deltas) != self._arity:
            raise MetricError(f"expected {self._arity} metrics, got {len(deltas)}")
        if not math.isfinite(duration) or duration < 0.0:
            raise MetricError(f"duration must be finite and non-negative: {duration}")
        dp = [float(d) for d in deltas]
        if not all(0.0 <= d < math.inf for d in dp):
            raise MetricError(f"progress deltas must be finite and non-negative: {deltas}")
        self._median.observe(duration, _ref_dot(self.coefficients(), dp))
        theta = self._theta
        self._x = [
            [xij * theta + di * dj for xij, dj in zip(row, dp)]
            for row, di in zip(self._x, dp)
        ]
        self._y = [yi * theta + duration * di for yi, di in zip(self._y, dp)]
        self._sum_dp = [si * theta + di for si, di in zip(self._sum_dp, dp)]
        self._sum_d = theta * self._sum_d + duration
        self._count += 1
        self._coefficients = None

    def coefficients(self) -> tuple[float, ...]:
        c = self._coefficients
        if c is None:
            c = self._coefficients = self._fit()
        return c

    def _fit(self) -> tuple[float, ...]:
        n = self._arity
        x = self._x
        diag = [x[i][i] for i in range(n)]
        if self._count == 0 or max(diag) <= 0.0:
            return (0.0,) * n
        scale = [math.sqrt(d) if d > 0.0 else 1.0 for d in diag]
        a = [[xij / (si * sj) for xij, sj in zip(row, scale)] for row, si in zip(x, scale)]
        for i in range(n):
            a[i][i] += self._nu
        b = [yi / si for yi, si in zip(self._y, scale)]
        c = [zi / si for zi, si in zip(_ref_solve(a, b), scale)]
        c = [ci if ci > 0.0 else 0.0 for ci in c]
        predicted = _ref_dot(c, self._sum_dp)
        if predicted > 0.0 and self._sum_d > 0.0:
            k = self._sum_d / predicted
            c = [ci * k for ci in c]
        return tuple(c)

    def target_duration(self, deltas: Sequence[float]) -> float:
        if len(deltas) != self._arity:
            raise MetricError(f"expected {self._arity} metrics, got {len(deltas)}")
        return _ref_dot(self.coefficients(), deltas) * self._median.scale


@st.composite
def _ridge_streams(draw):
    """(arity, nu, theta, samples) with zero, sparse, collinear and noisy deltas.

    Durations are drawn apart from the deltas, so the raw solution often
    has negative costs and the clamp runs.  Collinear deltas scale one
    base by powers of two, which with ``nu = 0`` makes the standardized
    system exactly singular and takes the minimum-norm fallback.
    """
    arity = draw(st.integers(1, 4))
    nu = draw(st.sampled_from([0.0, 0.1]))
    theta = draw(st.sampled_from([0.9, 0.99, 0.9999]))
    magnitude = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
    samples = []
    for _ in range(draw(st.integers(1, 25))):
        shape = draw(st.sampled_from(["free", "zero", "sparse", "collinear"]))
        if shape == "zero":
            deltas = [0.0] * arity
        elif shape == "collinear":
            base = draw(magnitude)
            deltas = [base * 2.0**k for k in range(arity)]
        else:
            deltas = [draw(magnitude) for _ in range(arity)]
            if shape == "sparse":
                deltas[draw(st.integers(0, arity - 1))] = 0.0
        duration = draw(st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False))
        samples.append((duration, deltas))
    return arity, nu, theta, samples


class TestRidgeMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_ridge_streams())
    def test_every_statistic_and_target(self, stream):
        arity, nu, theta, samples = stream
        cal = RidgeCalibrator(arity, theta=theta, nu=nu)
        ref = _ReferenceRidge(arity, theta=theta, nu=nu)
        probe = [1.0 + k for k in range(arity)]
        for duration, deltas in samples:
            # The regulator's order: spike guard target, update, judgment target.
            assert repr(cal.target_duration(deltas)) == repr(ref.target_duration(deltas))
            cal.update(duration, deltas)
            ref.update(duration, deltas)
            assert repr(cal.export_state()) == repr(ref.export_state())
            assert repr(cal.coefficients()) == repr(ref.coefficients())
            assert repr(cal.target_duration(deltas)) == repr(ref.target_duration(deltas))
            assert repr(cal.target_duration(probe)) == repr(ref.target_duration(probe))

    def test_streams_reach_the_clamp_and_the_fallback(self, monkeypatch):
        """The stream shapes above do reach both rare branches."""
        import repro.core.regression as regression

        fallbacks = []
        real = regression._min_norm_solve

        def counting(a, b):
            fallbacks.append(len(b))
            return real(a, b)

        monkeypatch.setattr(regression, "_min_norm_solve", counting)
        cal = RidgeCalibrator(3, theta=0.99, nu=0.0)
        for base in (1.0, 3.0, 5.0):
            cal.update(base, [base, 2.0 * base, 4.0 * base])
        cal.coefficients()
        assert fallbacks
        clamped = RidgeCalibrator(2, theta=0.99, nu=0.1)
        for duration, deltas in ((1.0, [1.0, 1.0]), (2.0, [2.0, 1.0]), (0.5, [1.0, 3.0])):
            clamped.update(duration, deltas)
        raw = _solve(_standardized(clamped))
        assert min(raw) < 0.0 and 0.0 in clamped.coefficients()


def _standardized(cal: RidgeCalibrator) -> list[list[float]]:
    """The augmented ridge system ``[a | b]`` ``_fit`` hands to the solver."""
    state = cal.export_state()
    x, y = state["x"], state["y"]
    scale = [math.sqrt(x[i][i]) if x[i][i] > 0.0 else 1.0 for i in range(len(y))]
    a = [[x[i][j] / (scale[i] * scale[j]) for j in range(len(y))] for i in range(len(y))]
    for i in range(len(y)):
        a[i][i] += cal._nu
    return [a[i] + [y[i] / scale[i]] for i in range(len(y))]


@st.composite
def _systems(draw):
    """Square systems, not symmetric, so partial pivoting swaps rows."""
    n = draw(st.integers(1, 4))
    entry = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    b = [draw(entry) for _ in range(n)]
    return a, b


class TestSolveMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(_systems())
    @example(([[1e-3, 1.0], [1.0, 1.0]], [1.0, 2.0]))
    @example(([[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [3.0, 0.0, 1.0]], [1.0, 2.0, 3.0]))
    @example(([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]))  # zero pivot: the fallback
    def test_same_floats(self, system):
        a, b = system
        before = repr((a, b))
        # The solver eliminates in place, so it gets an augmented copy, and
        # a zero pivot leaves the minimum-norm fallback to its caller.
        z = _solve([row + [bi] for row, bi in zip(a, b)])
        if z is None:
            z = _min_norm_solve(a, b)
        assert repr(z) == repr(_ref_solve(a, b))
        assert repr((a, b)) == before  # the inputs are not modified


def _reference_validation(last, new) -> str | None:
    """The message the regulator raised for ``new`` after ``last``, or None."""
    values = tuple(float(c) for c in new)
    for i, value in enumerate(values):
        if not math.isfinite(value):
            return f"metric {i} is not finite: {value}"
    for i, (n, o) in enumerate(zip(values, last)):
        if n < o:
            return (
                f"metric {i} regressed from {o} to {n}; counters must be cumulative "
                "and monotone"
            )
    return None


_COUNTER = st.one_of(
    st.floats(-10.0, 10.0, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
)


class TestCounterValidationMatchesReference:
    """Malformed counters raise the same error, finiteness before monotonicity."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
                st.lists(_COUNTER, min_size=n, max_size=n),
            )
        )
    )
    @example(([5.0, 0.0], [1.0, math.nan]))
    @example(([5.0, 0.0, 0.0], [1.0, 2.0, math.inf]))
    def test_same_error(self, counters):
        last, new = counters
        reg = ThreadRegulator(MannersConfig(min_testpoint_interval=0.0))
        reg.on_testpoint(0.0, 0, last)
        expected = _reference_validation(last, new)
        if expected is None:
            reg.on_testpoint(1.0, 0, new)
        else:
            with pytest.raises(MetricError) as info:
                reg.on_testpoint(1.0, 0, new)
            assert str(info.value) == expected
