"""Automatic target-rate calibration (paper sections 4.3, 4.4, 6.2, 6.3).

A *calibrator* learns, per metric set, the progress rates the application
achieves when it is not contending for resources.  Two concrete calibrators
implement a common duck-typed interface (``update``, ``target_duration``,
``ready``, ``export_state``, ``import_state``):

* :class:`SingleMetricCalibrator` — exponential average of the measured
  progress rate (Eq. 4), for metric sets with one metric.
* :class:`RidgeCalibrator` (from :mod:`repro.core.regression`) — ridge
  regression over decayed sufficient statistics, for metric sets with
  several concurrent metrics.

Both express their output as a **target duration** for a given progress
vector (section 4.4): the time the progress *should* have taken at target
rates.  The comparator then asks whether the measured duration exceeded the
target duration — the formulation that generalizes from one metric to many.

The orchestration concerns of section 4.3 — bootstrap, probation, and
subsampling of off-protocol testpoints — live in
:class:`~repro.core.controller.ThreadRegulator`, because they apply to the
whole regulated thread rather than to any single metric set.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from repro.core.averaging import ExponentialAverager
from repro.core.config import MannersConfig
from repro.core.errors import MetricError
from repro.core.regression import RidgeCalibrator
from repro.obs import lazy as obs_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["Calibrator", "MedianScale", "SingleMetricCalibrator", "make_calibrator"]


class MedianScale:
    """Median correction for mean-based targets (Robbins-Monro tracking).

    The calibrators estimate *mean* uncontended rates (exponential average,
    Eq. 4; least squares, Eq. 8), but the statistical comparator is a sign
    test: its null hypothesis is about the *median* sample.  When the
    per-testpoint rate distribution is skewed — e.g. windows dominated by
    sequential disk chunks are far faster than windows containing file-
    boundary seeks — the mean rate exceeds the median rate, a majority of
    honest samples fall below target, and the regulator suspends a process
    that is progressing perfectly well on an idle machine.

    ``MedianScale`` multiplies target durations by a quantile-tracked
    factor: on each calibration sample the factor takes a small
    multiplicative step up (sample below target) or down (at/above
    target), with step sizes chosen so it converges to the point where a
    fraction ``below_quantile`` of honest samples fall below target, and
    tracks drift thereafter.  The default quantile of 1/3 keeps the
    steady-state sign-test stream comfortably on the GOOD side (the paper
    counts "at least as good as the target" as good progress) while still
    condemning genuine contention — which pushes *every* sample below
    target — within the minimum window.

    The factor is clamped to ``bounds`` so that sustained resource
    contention (which inflates every sample) cannot silently stretch
    targets far enough to mask itself: genuine contention roughly doubles
    durations, well past the default 1.6x ceiling.
    """

    __slots__ = ("_scale", "_up", "_down", "_lo", "_hi")

    def __init__(
        self,
        eta: float = 0.02,
        bounds: tuple[float, float] = (0.5, 1.6),
        below_quantile: float = 1.0 / 3.0,
    ) -> None:
        if not 0.0 < eta < 0.5:
            raise ValueError(f"eta must be in (0, 0.5), got {eta}")
        lo, hi = bounds
        if not 0.0 < lo <= 1.0 <= hi:
            raise ValueError(f"bounds must bracket 1.0, got {bounds}")
        if not 0.0 < below_quantile < 1.0:
            raise ValueError(f"below_quantile must be in (0, 1), got {below_quantile}")
        self._scale = 1.0
        # Zero expected log-step at P(below) = below_quantile:
        #   P(below) * up == (1 - P(below)) * down.
        self._up = (1.0 + eta) ** (1.0 - below_quantile)
        self._down = (1.0 + eta) ** below_quantile
        self._lo = lo
        self._hi = hi

    @property
    def scale(self) -> float:
        """The current multiplicative correction."""
        return self._scale

    def observe(self, duration: float, predicted: float) -> None:
        """Step toward the target quantile given one (measured, predicted) pair."""
        if predicted <= 0.0 or duration <= 0.0:
            return
        if duration > predicted * self._scale:
            self._scale = min(self._scale * self._up, self._hi)
        else:
            self._scale = max(self._scale / self._down, self._lo)

    def export_state(self) -> float:
        """The persisted form (just the factor)."""
        return self._scale

    def import_state(self, value: float) -> None:
        """Restore a persisted factor (clamped into bounds).

        Raises :class:`MetricError`, leaving the factor unchanged, for a
        value that is not a finite number: a NaN factor would make every
        target duration NaN.
        """
        try:
            factor = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MetricError(f"persisted median scale is not a number: {value!r}") from exc
        if not math.isfinite(factor):
            raise MetricError(f"persisted median scale must be finite: {factor}")
        self._scale = min(max(factor, self._lo), self._hi)


@runtime_checkable
class Calibrator(Protocol):
    """Common interface of target-rate calibrators."""

    @property
    def arity(self) -> int:
        """Number of metrics in this calibrator's metric set."""
        ...  # pragma: no cover - protocol stub

    @property
    def sample_count(self) -> int:
        """Calibration samples absorbed so far."""
        ...  # pragma: no cover - protocol stub

    def update(self, duration: float, deltas: Sequence[float]) -> None:
        """Fold in one calibration-eligible testpoint sample."""
        ...  # pragma: no cover - protocol stub

    def target_duration(self, deltas: Sequence[float]) -> float:
        """Target duration for a progress vector at calibrated rates."""
        ...  # pragma: no cover - protocol stub

    def export_state(self) -> dict:
        """Serializable snapshot."""
        ...  # pragma: no cover - protocol stub

    def import_state(self, state: dict) -> None:
        """Restore a snapshot."""
        ...  # pragma: no cover - protocol stub


class SingleMetricCalibrator:
    """Exponential-average calibrator for a one-metric set (Eq. 4).

    The target rate is the exponential average of per-testpoint progress
    rates; the target duration for a progress delta ``dp`` is then
    ``dp / target_rate``.
    """

    __slots__ = ("_avg", "_median", "_telemetry", "_set_index")

    def __init__(
        self,
        window: int,
        telemetry: "Telemetry | None" = None,
        set_index: int = 0,
    ) -> None:
        self._avg = ExponentialAverager(window)
        self._median = MedianScale()
        self._telemetry = telemetry
        self._set_index = set_index

    @property
    def arity(self) -> int:
        return 1

    @property
    def sample_count(self) -> int:
        return self._avg.sample_count

    @property
    def target_rate(self) -> float | None:
        """Calibrated rate in progress units per second, or ``None``."""
        return self._avg.value

    def update(self, duration: float, deltas: Sequence[float]) -> None:
        """Fold one (duration, progress-delta) sample into the average."""
        if len(deltas) != 1:
            raise MetricError(f"expected 1 metric, got {len(deltas)}")
        dp = float(deltas[0])
        if not math.isfinite(duration) or duration <= 0.0:
            # A zero-length interval carries no rate information.
            return
        if not math.isfinite(dp) or dp < 0.0:
            raise MetricError(f"progress delta must be finite and non-negative: {dp}")
        self._median.observe(duration, self._mean_duration(deltas))
        self._avg.update(dp / duration)
        tel = self._telemetry
        if tel is not None:
            if tel.emitting:
                tel.emit(
                    obs_events.TargetUpdated(
                        t=tel.now,
                        src=tel.label,
                        set_index=self._set_index,
                        sample_count=self._avg.sample_count,
                        target_rate=self._avg.value,
                        scale=self._median.scale,
                    )
                )
                ctx = tel.trace_ctx
                if ctx is not None:
                    tel.emit(
                        obs_events.Span(
                            t=tel.now,
                            src=tel.label,
                            span_id=ctx.new_id(),
                            parent=ctx.testpoint,
                            name="calibration_update",
                            attrs={
                                "set_index": self._set_index,
                                "sample_count": self._avg.sample_count,
                                "target_rate": self._avg.value,
                                "scale": self._median.scale,
                            },
                        )
                    )
            gauges = tel.metrics.gauges
            if self._avg.value is not None:
                gauges.target_rate.value = self._avg.value
            gauges.calibration_scale.value = self._median.scale
            tel.metrics.histograms.progress_rate.observe(dp / duration)

    def _mean_duration(self, deltas: Sequence[float]) -> float:
        rate = self._avg.value
        if rate is None or rate <= 0.0:
            return 0.0
        return float(deltas[0]) / rate

    def target_duration(self, deltas: Sequence[float]) -> float:
        """Target duration for the delta at the calibrated (median-corrected) rate."""
        if len(deltas) != 1:
            raise MetricError(f"expected 1 metric, got {len(deltas)}")
        return self._mean_duration(deltas) * self._median.scale

    def export_state(self) -> dict:
        """Serializable snapshot (rate + warm-up count + median factor).

        ``samples`` records the averager's warm-up position; without it a
        restored calibrator weighted its next update ``1/n`` instead of
        ``1/(samples+1)`` and the save→load round trip drifted from the
        uninterrupted run.
        """
        return {
            "rate": self._avg.value,
            "samples": self._avg.sample_count,
            "median_scale": self._median.export_state(),
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot.

        Snapshots carrying a ``samples`` count restore the averager's exact
        warm-up position, so the subsequent update stream is bit-identical
        to an uninterrupted run.  Legacy snapshots (rate only) fall back to
        the section 7.1 restart semantics: the persisted rate carries full
        window weight.
        """
        rate = state.get("rate")
        if rate is None:
            return
        rate = float(rate)
        if not math.isfinite(rate) or rate < 0.0:
            raise MetricError(f"persisted rate must be finite and non-negative: {rate}")
        samples = None
        if "samples" in state:
            samples = int(state["samples"])
            if samples < 1:
                raise MetricError(
                    f"persisted sample count must be >= 1 with a rate, got {samples}"
                )
        if "median_scale" in state:
            # Last of the checks: it raises before changing anything.
            self._median.import_state(state["median_scale"])
        if samples is None:
            self._avg.seed(rate)
        else:
            self._avg.import_state({"value": rate, "count": samples})


def make_calibrator(
    arity: int,
    config: MannersConfig,
    telemetry: "Telemetry | None" = None,
    set_index: int = 0,
) -> Calibrator:
    """Build the appropriate calibrator for a metric set of ``arity`` metrics.

    One metric: exponential averaging of the rate (section 6.2).  Several
    concurrent metrics: ridge regression over decayed sufficient statistics
    (section 6.3).  With ``telemetry``, the calibrator emits a
    ``target_updated`` event per absorbed sample, tagged ``set_index``.
    """
    if arity < 1:
        raise MetricError(f"metric set must have at least one metric, got {arity}")
    if arity == 1:
        return SingleMetricCalibrator(
            config.averaging_n, telemetry=telemetry, set_index=set_index
        )
    return RidgeCalibrator(
        arity,
        theta=config.theta,
        nu=config.ridge_nu,
        min_rate=config.min_metric_rate,
        telemetry=telemetry,
        set_index=set_index,
    )
