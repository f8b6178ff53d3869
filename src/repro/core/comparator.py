"""Rate comparators: statistical (paper section 4.2) and direct (ablation).

A comparator consumes one (measured duration, target duration) pair per
processed testpoint and produces a :class:`~repro.core.signtest.Judgment`.
A sample indicates *below-target* progress when the measured duration
exceeds the target duration — the duration formulation of section 4.4, which
is equivalent to rate-versus-target-rate for a single metric and extends to
summed per-metric target durations for several.

* :class:`StatisticalComparator` — accumulates below/above bits in a
  sequential paired-sample sign test and judges only once it is confident
  (the paper's design; necessary because progress measurements are noisy —
  see Figure 8).
* :class:`DirectComparator` — judges every sample immediately.  This is the
  strawman section 4.2 warns against ("overreactive and highly erratic");
  it exists for the ablation benchmark that demonstrates why the sign test
  is needed.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.errors import MetricError
from repro.core.signtest import Judgment, SignTest
from repro.obs import lazy as obs_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["RateComparator", "StatisticalComparator", "DirectComparator"]


@runtime_checkable
class RateComparator(Protocol):
    """Common interface of rate comparators."""

    def observe(self, measured_duration: float, target_duration: float) -> Judgment:
        """Fold in one testpoint's comparison; return the current verdict."""
        ...  # pragma: no cover - protocol stub

    def reset(self) -> None:
        """Discard any accumulated comparison state."""
        ...  # pragma: no cover - protocol stub


def _is_below_target(measured_duration: float, target_duration: float) -> bool:
    if not math.isfinite(measured_duration) or measured_duration < 0.0:
        raise MetricError(
            f"measured duration must be finite and non-negative: {measured_duration}"
        )
    if not math.isfinite(target_duration) or target_duration < 0.0:
        raise MetricError(
            f"target duration must be finite and non-negative: {target_duration}"
        )
    # Taking longer than the target duration means progressing below the
    # target rate.  Equality counts as at-target (good), per section 4.1:
    # "If the actual progress rate is at least as good as the target...".
    return measured_duration > target_duration


class StatisticalComparator:
    """Sign-test-backed comparator (the paper's statistical rate comparator).

    Wraps a :class:`~repro.core.signtest.SignTest`.  INDETERMINATE verdicts
    leave all regulator state untouched (the process continues to its next
    testpoint, preserving the current suspension time); POOR and GOOD
    verdicts consume the sample window.
    """

    __slots__ = ("_test", "_telemetry", "_window_opened")

    def __init__(
        self,
        alpha: float = 0.05,
        beta: float = 0.2,
        max_samples: int = 4096,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self._test = SignTest(alpha=alpha, beta=beta, max_samples=max_samples)
        self._telemetry = telemetry
        #: Telemetry-only: substrate time the open window's first sample
        #: arrived, for the time-to-detect histogram and judgment spans.
        self._window_opened = 0.0

    @property
    def sample_count(self) -> int:
        """Samples in the current (unjudged) window."""
        return self._test.sample_count

    @property
    def below_count(self) -> int:
        """Below-target samples in the current window."""
        return self._test.below_count

    def observe(self, measured_duration: float, target_duration: float) -> Judgment:
        """Fold in one comparison; return the sign test's current verdict."""
        below = _is_below_target(measured_duration, target_duration)
        tel = self._telemetry
        if tel is None:
            # Disabled-telemetry hot path: add_sample is table-driven
            # (precomputed thresholds, no binomial walks) and allocates
            # nothing — the tables are checked against the threshold
            # functions by tests/core/test_signtest.py.
            return self._test.add_sample(below)
        test = self._test
        in_window = test.sample_count
        if in_window == 0:
            self._window_opened = tel.now
        # The window resets on a definitive verdict; capture its size first
        # (only when an event will actually be built — a NullSink run skips
        # the captures and the event construction, keeping just metrics).
        emitting = tel.emitting
        ctx = tel.trace_ctx if emitting else None
        if emitting:
            samples = in_window + 1
            below_count = test.below_count + (1 if below else 0)
        if ctx is not None:
            # One span per accumulation step, carrying the exact evidence:
            # the sample's comparison and the threshold-table row it was
            # held to.  Parented to the testpoint that produced the sample.
            poor_at, good_at = test.thresholds(samples)
            sample_span = ctx.new_id()
            ctx.window.append(sample_span)
            tel.emit(
                obs_events.Span(
                    t=tel.now,
                    src=tel.label,
                    span_id=sample_span,
                    parent=ctx.testpoint,
                    name="signtest_sample",
                    attrs={
                        "n": samples,
                        "below": below,
                        "below_count": below_count,
                        "poor_at": poor_at,
                        "good_at": good_at,
                        "measured": measured_duration,
                        "target": target_duration,
                    },
                )
            )
        verdict = test.add_sample(below)
        if verdict is not Judgment.INDETERMINATE:
            time_to_detect = tel.now - self._window_opened
            if emitting:
                tel.emit(
                    obs_events.JudgmentIssued(
                        t=tel.now,
                        src=tel.label,
                        judgment=verdict.value,
                        samples=samples,
                        below=below_count,
                    )
                )
            if ctx is not None:
                judgment_span = ctx.new_id()
                tel.emit(
                    obs_events.Span(
                        t=tel.now,
                        src=tel.label,
                        span_id=judgment_span,
                        parent=ctx.testpoint,
                        links=tuple(ctx.window),
                        name="judgment",
                        attrs={
                            "judgment": verdict.value,
                            "samples": samples,
                            "below": below_count,
                            "poor_at": poor_at,
                            "good_at": good_at,
                            "time_to_detect": time_to_detect,
                        },
                    )
                )
                ctx.judgment = judgment_span
                ctx.window.clear()
            tel.metrics.counter(f"signtest_{verdict.value}_windows").inc()
            tel.metrics.histograms.time_to_detect.observe(time_to_detect)
        elif ctx is not None and test.sample_count == 0:
            # The window hit max_samples and restarted without a verdict;
            # its sample spans no longer feed a future judgment.
            ctx.window.clear()
        return verdict

    def reset(self) -> None:
        """Discard the current sample window."""
        self._test.reset()

    def export_state(self) -> dict:
        """Snapshot the open sign-test window (see ``SignTest.export_state``)."""
        return self._test.export_state()

    def import_state(self, state: dict) -> None:
        """Restore an open sign-test window snapshot."""
        self._test.import_state(state)


class DirectComparator:
    """Immediate per-sample comparator (ablation strawman).

    Every below-target sample is judged POOR and every at-or-above-target
    sample GOOD, with no statistical accumulation.
    """

    __slots__ = ()

    def observe(self, measured_duration: float, target_duration: float) -> Judgment:
        """Judge this single sample immediately (no accumulation)."""
        if _is_below_target(measured_duration, target_duration):
            return Judgment.POOR
        return Judgment.GOOD

    def reset(self) -> None:
        """No accumulated state to discard."""
