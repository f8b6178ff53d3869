"""Ridge regression over decayed sufficient statistics (paper section 6.3).

For applications that progress along several metrics concurrently, the
calibrator models the duration between testpoints as the sum of the times to
make each kind of progress (Eq. 8):

    d = sum_k (1 / r_k) * dp_k

and estimates the regression coefficients ``c_k = 1 / r_k`` by least squares
with no bias term.  The sufficient statistics are (Eqs. 9-10):

    x[i][j] = sum over samples of dp_i * dp_j
    y[i]    = sum over samples of d * dp_i

and are *exponentially averaged* rather than summed, so the inferred rates
track long-term changes in resource characteristics (Eqs. 11-12):

    x[i][j] <- theta * x[i][j] + dp_i * dp_j
    y[i]    <- theta * y[i]    + d * dp_i

Correlated metrics (common in practice: bytes read and read operations move
together) make the normal-equation matrix nearly singular, so the solver
applies *ridge regression* (Eqs. 13-14): before solving, it adds
``nu * q`` to each diagonal element, where ``q`` is the mean diagonal
magnitude.  The paper reports ``nu = 0.1`` balances the perturbation against
floating-point round-off.

The statistics are plain Python floats and the solve is Gaussian
elimination with partial pivoting, so every result comes from IEEE basic
operations in a fixed order and does not depend on a BLAS build or CPU.
The solve runs at most once per sample: the regulator asks for the
coefficients several times per testpoint, and only :meth:`update` and
:meth:`import_state` change them.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

from repro.core.errors import ConfigError, MetricError
from repro.obs import lazy as obs_events

__all__ = ["RidgeCalibrator"]

_INF = math.inf

#: Sweep cap for the Jacobi eigen-solve; it converges quadratically, so a
#: well-formed system needs a handful.
_JACOBI_MAX_SWEEPS = 64


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """Left-to-right dot product (``sum`` would compensate on Python 3.12+)."""
    total = 0.0
    for ui, vi in zip(u, v):
        total += ui * vi
    return total


def _solve(m: list[list[float]]) -> list[float] | None:
    """Solve the augmented system ``m = [a | b]`` for ``a z = b``, in place.

    Gaussian elimination with partial pivoting overwrites ``m`` (its rows
    and their order).  Returns ``None`` at a zero pivot: ``a`` is exactly
    singular, which is reachable only with ``nu == 0``, and the caller
    falls back to :func:`_min_norm_solve` on a fresh copy of the system.
    """
    n = len(m)
    for k in range(n):
        p = k
        largest = abs(m[k][k])
        for i in range(k + 1, n):
            size = abs(m[i][k])
            if size > largest:
                p = i
                largest = size
        if p != k:
            m[k], m[p] = m[p], m[k]
        pivot_row = m[k]
        pivot = pivot_row[k]
        if pivot == 0.0:
            return None
        for i in range(k + 1, n):
            row = m[i]
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


def _min_norm_solve(a: list[list[float]], b: list[float]) -> list[float]:
    """Minimum-norm least-squares solution of the symmetric system ``a z = b``.

    Cyclic Jacobi rotations diagonalize ``a = V diag(w) V^T``.  Eigenvalues
    no larger than ``eps * n`` times the largest magnitude count as zero:
    the cutoff ``lstsq(rcond=None)`` applies to singular values, which for
    a symmetric matrix are the eigenvalue magnitudes.
    """
    n = len(b)
    m = [row[:] for row in a]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        total = 0.0
        for i in range(n):
            for j in range(n):
                sq = m[i][j] * m[i][j]
                total += sq
                if i != j:
                    off += sq
        if off <= sys.float_info.epsilon**2 * total:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p][q]
                if apq == 0.0:
                    continue
                tau = (m[q][q] - m[p][p]) / (2.0 * apq)
                t = math.copysign(1.0 / (abs(tau) + math.hypot(1.0, tau)), tau)
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                for rows in (m, v):  # columns p, q of m and v: X <- X J
                    for row in rows:
                        rp, rq = row[p], row[q]
                        row[p] = c * rp - s * rq
                        row[q] = s * rp + c * rq
                mp, mq = m[p], m[q]  # rows p, q of m: m <- J^T m
                for k in range(n):
                    rp, rq = mp[k], mq[k]
                    mp[k] = c * rp - s * rq
                    mq[k] = s * rp + c * rq
                mp[q] = mq[p] = 0.0
    w = [m[i][i] for i in range(n)]
    cutoff = sys.float_info.epsilon * n * max(abs(wk) for wk in w)
    z = [0.0] * n
    for k, wk in enumerate(w):
        if abs(wk) > cutoff:
            vk = [row[k] for row in v]
            coef = _dot(vk, b) / wk
            for i in range(n):
                z[i] += coef * vk[i]
    return z


class RidgeCalibrator:
    """Infers per-metric target rates from (duration, progress-deltas) samples.

    One instance per metric set.  Feed samples with :meth:`update`; read the
    current estimates with :meth:`rates` or :meth:`coefficients`, and compute
    target durations for a new progress vector with :meth:`target_duration`.
    """

    __slots__ = (
        "_arity",
        "_theta",
        "_nu",
        "_min_rate",
        "_x",
        "_y",
        "_sum_dp",
        "_sum_d",
        "_count",
        "_coefficients",
        "_median",
        "_telemetry",
        "_set_index",
    )

    def __init__(
        self,
        arity: int,
        theta: float,
        nu: float = 0.1,
        min_rate: float = 1e-9,
        telemetry=None,
        set_index: int = 0,
    ) -> None:
        if arity < 1:
            raise MetricError(f"metric set must have at least one metric, got {arity}")
        if not 0.0 <= theta < 1.0:
            raise ConfigError(f"theta must be in [0, 1), got {theta}")
        if nu < 0.0:
            raise ConfigError(f"nu must be non-negative, got {nu}")
        if min_rate <= 0.0:
            raise ConfigError(f"min_rate must be positive, got {min_rate}")
        self._arity = arity
        self._theta = theta
        self._nu = nu
        self._min_rate = min_rate
        self._x = [[0.0] * arity for _ in range(arity)]
        self._y = [0.0] * arity
        # Decayed aggregate progress and duration, used to pin the solution's
        # scale: ridge shrinkage (and duration noise correlated with the
        # progress deltas) biases the raw least-squares coefficients low,
        # which would make typical samples look below-target even on an
        # idle system.  Rescaling the coefficient vector so that predicted
        # total duration matches observed total duration removes that bias
        # while keeping the regression's *apportioning* of cost among
        # correlated metrics.
        self._sum_dp = [0.0] * arity
        self._sum_d = 0.0
        self._count = 0
        # Solved coefficients for the current statistics, or None.
        self._coefficients: tuple[float, ...] | None = None
        # Median correction: least squares estimates the *mean* cost, the
        # sign-test comparator judges against the *median* sample; see
        # repro.core.calibration.MedianScale.
        from repro.core.calibration import MedianScale

        self._median = MedianScale()
        self._telemetry = telemetry
        self._set_index = set_index

    # -- state -------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of metrics."""
        return self._arity

    @property
    def sample_count(self) -> int:
        """Samples folded into the sufficient statistics."""
        return self._count

    # -- persistence ----------------------------------------------------------------
    def export_state(self) -> dict:
        """Serializable snapshot (for :mod:`repro.core.persistence`)."""
        return {
            "x": [row[:] for row in self._x],
            "y": self._y[:],
            "sum_dp": self._sum_dp[:],
            "sum_d": self._sum_d,
            "count": self._count,
            "median_scale": self._median.export_state(),
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        Raises :class:`MetricError`, leaving the calibrator unchanged, for
        any state :meth:`update` could not have produced.
        """
        n = self._arity
        try:
            x = [[float(v) for v in row] for row in state["x"]]
            y = [float(v) for v in state["y"]]
            sum_dp = [float(v) for v in state.get("sum_dp", [0.0] * n)]
            sum_d = float(state.get("sum_d", 0.0))
            count = int(state.get("count", 0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MetricError(f"persisted regression state is malformed: {exc}") from exc
        if len(x) != n or any(len(row) != n for row in x) or len(y) != n:
            raise MetricError(
                f"persisted state arity mismatch: x has {len(x)} rows, y {len(y)} "
                f"entries, expected arity {n}"
            )
        if not all(math.isfinite(v) for row in (*x, y) for v in row):
            raise MetricError("persisted regression state contains non-finite values")
        if len(sum_dp) != n or not all(math.isfinite(v) for v in sum_dp):
            raise MetricError("persisted regression aggregates are malformed")
        if not (math.isfinite(sum_d) and sum_d >= 0.0):
            raise MetricError(f"persisted duration aggregate is invalid: {sum_d}")
        if count < 0:
            raise MetricError(f"persisted sample count is negative: {count}")
        if any(x[i][i] < 0.0 for i in range(n)):
            raise MetricError("persisted regression statistics have a negative diagonal")
        if any(x[i][j] != x[j][i] for i in range(n) for j in range(i)):
            raise MetricError("persisted regression statistics are not symmetric")
        if "median_scale" in state:
            # Last of the checks: it raises before changing anything.
            self._median.import_state(state["median_scale"])
        self._x = x
        self._y = y
        self._sum_dp = sum_dp
        self._sum_d = sum_d
        self._count = count
        self._coefficients = None

    # -- operation --------------------------------------------------------------------
    def update(self, duration: float, deltas: Sequence[float]) -> None:
        """Fold one testpoint sample into the decayed sufficient statistics."""
        n = self._arity
        if len(deltas) != n:
            raise MetricError(f"expected {n} metrics, got {len(deltas)}")
        if not math.isfinite(duration) or duration < 0.0:
            raise MetricError(f"duration must be finite and non-negative: {duration}")
        dp = list(map(float, deltas))
        for d in dp:
            if not 0.0 <= d < _INF:
                raise MetricError(
                    f"progress deltas must be finite and non-negative: {deltas}"
                )
        c = self._coefficients
        if c is None:
            c = self._coefficients = self._fit()
        predicted = 0.0
        for ci, di in zip(c, dp):
            predicted += ci * di
        self._median.observe(duration, predicted)
        # In place: export_state copies and import_state builds fresh lists,
        # so no caller holds these lists.
        theta = self._theta
        x = self._x
        y = self._y
        sum_dp = self._sum_dp
        for i in range(n):
            row = x[i]
            di = dp[i]
            for j in range(n):
                row[j] = row[j] * theta + di * dp[j]
            y[i] = y[i] * theta + duration * di
            sum_dp[i] = sum_dp[i] * theta + di
        self._sum_d = theta * self._sum_d + duration
        self._count += 1
        self._coefficients = None
        tel = self._telemetry
        if tel is not None:
            scale = self._median.scale
            if tel.emitting:
                tel.emit(
                    obs_events.TargetUpdated(
                        t=tel.now,
                        src=tel.label,
                        set_index=self._set_index,
                        sample_count=self._count,
                        target_rate=None,
                        scale=scale,
                    )
                )
            tel.metrics.gauges.calibration_scale.value = scale

    def coefficients(self) -> tuple[float, ...]:
        """Solve the ridge-regularized normal equations for ``c_k = 1/r_k``.

        Returns per-metric time costs (seconds per progress unit), clamped
        to be non-negative.  Before any sample has been seen, returns zeros
        (no inferred cost).  The solution is cached until the statistics
        change.
        """
        c = self._coefficients
        if c is None:
            c = self._coefficients = self._fit()
        return c

    def _fit(self) -> tuple[float, ...]:
        n = self._arity
        if self._count == 0:
            return (0.0,) * n
        x = self._x
        # Standardized ridge: normalize each metric by sqrt of its diagonal
        # before applying the offset, so the perturbation is the same
        # *relative* size for every metric.  This is Eqs. (13)-(14) made
        # scale-invariant — with the paper's literal mean-diagonal offset,
        # a metric whose magnitude is orders of magnitude below another's
        # (indices counted in ones vs bytes counted in thousands) would be
        # annihilated by the offset rather than merely stabilized.
        scale = [1.0] * n
        moved = False
        for i in range(n):
            d = x[i][i]
            if d > 0.0:
                scale[i] = math.sqrt(d)
                moved = True
        if not moved:
            # No progress observed along any metric yet.
            return (0.0,) * n
        z = _solve(self._system(scale))
        if z is None:
            # Exactly singular: the solver consumed the system, so rebuild it.
            m = self._system(scale)
            z = _min_norm_solve([row[:n] for row in m], [row[n] for row in m])
        # A metric can transiently receive a small negative cost when it is
        # strongly anti-correlated with another; a negative time-per-unit is
        # physically meaningless, so clamp.  The same pass sums the clamped
        # costs' predicted aggregate duration, left to right.
        sum_dp = self._sum_dp
        predicted = 0.0
        for i in range(n):
            ci = z[i] / scale[i]
            if not ci > 0.0:
                ci = 0.0
            z[i] = ci
            predicted += ci * sum_dp[i]
        # Pin the scale: predicted aggregate duration must equal the observed
        # aggregate duration (see the constructor comment).
        sum_d = self._sum_d
        if predicted > 0.0 and sum_d > 0.0:
            k = sum_d / predicted
            for i in range(n):
                z[i] *= k
        return tuple(z)

    def _system(self, scale: list[float]) -> list[list[float]]:
        """The standardized ridge system ``[a | b]``, one augmented row per metric."""
        n = self._arity
        nu = self._nu
        x = self._x
        y = self._y
        m = []
        for i in range(n):
            row = x[i]
            si = scale[i]
            m_row = [0.0] * (n + 1)
            for j in range(n):
                m_row[j] = row[j] / (si * scale[j])
            m_row[i] += nu  # unit diagonal => Q = 1.
            m_row[n] = y[i] / si
            m.append(m_row)
        return m

    def rates(self) -> tuple[float, ...]:
        """Per-metric target rates ``r_k`` (progress units per second).

        The inverse of :meth:`coefficients`, floored at ``min_rate`` to keep
        target durations finite.  A metric whose inferred cost is zero gets
        an infinite rate (it contributes no target duration).
        """
        return tuple(
            max(math.inf if cost <= 0.0 else 1.0 / cost, self._min_rate)
            for cost in self.coefficients()
        )

    def target_duration(self, deltas: Sequence[float]) -> float:
        """Section 4.4: ``d_target = sum_k dp_k / r_k``, median-corrected."""
        if len(deltas) != self._arity:
            raise MetricError(
                f"expected {self._arity} metrics, got {len(deltas)}"
            )
        c = self._coefficients
        if c is None:
            c = self._coefficients = self._fit()
        total = 0.0
        for ci, di in zip(c, deltas):
            total += ci * di
        return total * self._median.scale
