"""Progress-metric sanity checking (paper section 11, future work).

"Our method can be thwarted by a malicious program that provides false
progress information.  We could possibly detect this in some instances by
performing sanity checks on the progress metrics relative to measurable
system resource usage."

:class:`ProgressSanityChecker` implements that check.  It learns, by the
same decayed-sufficient-statistics machinery the calibrator uses, how much
*measured resource usage* (bytes of I/O, CPU seconds — anything the OS can
observe without the application's cooperation) normally accompanies a unit
of *reported progress*.  A window whose reported progress far outruns its
resource footprint is flagged as implausible; sustained implausibility is
the signature of a process inflating its counters to dodge regulation.

The checker is advisory: it never regulates by itself (resource usage is a
poor progress signal, as section 11 explains — consumption and progress
can be negatively correlated).  It answers one narrow question: *is this
application's story about its own progress physically plausible?*
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.averaging import ExponentialAverager
from repro.core.errors import ConfigError, MetricError

__all__ = ["SanityVerdict", "ProgressSanityChecker"]


@dataclass(frozen=True, slots=True)
class SanityVerdict:
    """Outcome of one sanity observation."""

    #: Reported progress per unit of observed resource usage, normalized by
    #: the learned baseline (1.0 = exactly as expensive as usual).
    progress_ratio: float
    #: Whether this window's story is implausible (ratio above threshold).
    implausible: bool
    #: Decayed fraction of recent windows that were implausible.
    suspicion: float


class ProgressSanityChecker:
    """Cross-checks reported progress against observed resource usage."""

    __slots__ = ("_baseline", "_min_samples", "_threshold", "_suspicion", "_suspicion_threshold")

    def __init__(
        self,
        window: int = 200,
        ratio_threshold: float = 4.0,
        suspicion_threshold: float = 0.5,
        min_samples: int = 16,
    ) -> None:
        """Configure the checker.

        Args:
            window: Exponential-averaging window for the baseline cost.
            ratio_threshold: A window reporting more than this multiple of
                the usual progress-per-resource is implausible.
            suspicion_threshold: Decayed implausible fraction above which
                :attr:`suspicious` trips.
            min_samples: Baseline samples required before judging.
        """
        if ratio_threshold <= 1.0:
            raise ConfigError(f"ratio_threshold must exceed 1, got {ratio_threshold}")
        if not 0.0 < suspicion_threshold <= 1.0:
            raise ConfigError(
                f"suspicion_threshold must be in (0, 1], got {suspicion_threshold}"
            )
        if min_samples < 2:
            raise ConfigError(f"min_samples must be >= 2, got {min_samples}")
        self._baseline = ExponentialAverager(window)
        self._suspicion = ExponentialAverager(max(window // 4, 8))
        self._threshold = ratio_threshold
        self._suspicion_threshold = suspicion_threshold
        self._min_samples = min_samples

    # -- state -------------------------------------------------------------------
    @property
    def baseline_progress_per_resource(self) -> float | None:
        """Learned units of progress per unit of resource usage."""
        return self._baseline.value

    @property
    def suspicion(self) -> float:
        """Decayed fraction of recent windows judged implausible."""
        return self._suspicion.value or 0.0

    @property
    def suspicious(self) -> bool:
        """Whether sustained implausibility has crossed the threshold."""
        return (
            self._baseline.sample_count >= self._min_samples
            and self.suspicion > self._suspicion_threshold
        )

    @property
    def ready(self) -> bool:
        """Whether enough baseline has accumulated to judge."""
        return self._baseline.sample_count >= self._min_samples

    # -- operation -----------------------------------------------------------------
    def observe(
        self, progress: float | Sequence[float], resource_usage: float
    ) -> SanityVerdict:
        """Fold in one window of (reported progress, observed usage).

        ``progress`` may be a scalar or a metric vector (summed); usage is
        any non-negative scalar observable (bytes transferred, CPU time).
        Windows with no reported progress are uninformative and pass.
        """
        total = (
            float(progress)
            if isinstance(progress, (int, float))
            else float(sum(progress))
        )
        if not math.isfinite(total) or total < 0:
            raise MetricError(f"progress must be finite and non-negative: {total}")
        if not math.isfinite(resource_usage) or resource_usage < 0:
            raise MetricError(
                f"resource usage must be finite and non-negative: {resource_usage}"
            )
        if total == 0.0:
            return SanityVerdict(0.0, False, self.suspicion)

        observed_rate = total / max(resource_usage, 1e-12)
        baseline = self._baseline.value
        if baseline is None or self._baseline.sample_count < self._min_samples:
            self._baseline.update(observed_rate)
            self._suspicion.update(0.0)
            return SanityVerdict(1.0, False, self.suspicion)

        ratio = observed_rate / max(baseline, 1e-12)
        implausible = ratio > self._threshold
        self._suspicion.update(1.0 if implausible else 0.0)
        if not implausible:
            # Only plausible windows refine the baseline; otherwise a
            # cheater would teach the checker its own inflated cost model.
            self._baseline.update(observed_rate)
        return SanityVerdict(ratio, implausible, self.suspicion)
