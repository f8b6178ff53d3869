"""Paired-sample sign test for progress-rate judgment (paper section 6.1).

Each testpoint contributes one paired comparison: the measured duration since
the previous testpoint versus the target duration computed from the
calibrated target rates (equivalently, measured rate versus target rate for a
single metric).  The comparator accumulates these binary outcomes and, after
each sample, asks the sign test for one of three verdicts:

* :attr:`Judgment.POOR` — progress is below target with confidence
  ``1 - alpha``; the regulator should suspend and double the suspension time.
* :attr:`Judgment.GOOD` — progress is at or above target with confidence
  ``1 - beta``; the regulator should reset the suspension time.
* :attr:`Judgment.INDETERMINATE` — not enough data; keep running and keep
  collecting samples.

Because the test is non-parametric it makes no assumption about the
distribution of progress-rate noise, and because each sample is compared
against *its own* target (per phase, or the summed multi-metric target
duration), samples from different execution phases combine into a single
judgment (section 4.4).

The decision thresholds come from exact Binomial(n, 1/2) tails:

* poor when ``P(R >= r | p = 1/2) <= alpha`` — under the null hypothesis
  that the true median rate is at least the target, at most half the samples
  should fall below target;
* good when ``P(R <= r | p = 1/2) <= beta`` — under the marginal alternative
  that the median rate is exactly at target, seeing this few below-target
  samples would be surprising.

The minimum window that can recognize poor progress is Eq. (1):
``m = ceil(log2(1 / alpha))`` — the all-below-target run whose null
probability ``2**-n`` first drops below ``alpha``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import NormalDist

from repro.core.binomial import binomial_cdf, binomial_sf
from repro.core.errors import ConfigError

#: Window size beyond which thresholds use the normal approximation with
#: continuity correction instead of exact binomial tails.  Exact sums cost
#: O(n) per evaluation, which is prohibitive when a progress stream that
#: hovers exactly at its target grows the window into the thousands; at
#: these sizes the approximation is accurate to within a sample.
_EXACT_LIMIT = 256

_NORMAL = NormalDist()

__all__ = ["Judgment", "SignTest", "poor_threshold", "good_threshold", "min_poor_samples"]


class Judgment(enum.Enum):
    """Tri-state outcome of the statistical rate comparison."""

    POOR = "poor"
    GOOD = "good"
    INDETERMINATE = "indeterminate"


@lru_cache(maxsize=16384)
def poor_threshold(n: int, alpha: float) -> int:
    """Smallest ``r`` such that ``P(R >= r | n, 1/2) <= alpha``.

    Returns ``n + 1`` when no count of below-target samples out of ``n`` is
    extreme enough (i.e. the window is too small to ever judge poor).
    Exact for windows up to ``_EXACT_LIMIT``; a continuity-corrected normal
    approximation beyond that.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    return _poor_threshold(n, alpha, _NORMAL.inv_cdf(1.0 - alpha))


def _poor_threshold(n: int, alpha: float, z: float) -> int:
    # z is the normal quantile inv_cdf(1 - alpha), hoisted for table builds.
    guess = n / 2.0 + z * math.sqrt(n) / 2.0 + 0.5
    if n > _EXACT_LIMIT:
        return min(max(math.ceil(guess), 0), n + 1)
    if binomial_sf(n, n) > alpha:
        return n + 1
    # Adjust the normal-approximation guess against the exact tail.
    r = min(max(int(guess), 0), n)
    while r <= n and binomial_sf(n, r) > alpha:
        r += 1
    while r > 0 and binomial_sf(n, r - 1) <= alpha:
        r -= 1
    return r


@lru_cache(maxsize=16384)
def good_threshold(n: int, beta: float) -> int:
    """Largest ``r`` such that ``P(R <= r | n, 1/2) <= beta``.

    Returns ``-1`` when no count is small enough (window too small to judge
    good).  Exact for windows up to ``_EXACT_LIMIT``; a continuity-corrected
    normal approximation beyond that.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must be in (0, 1), got {beta}")
    return _good_threshold(n, beta, _NORMAL.inv_cdf(1.0 - beta))


def _good_threshold(n: int, beta: float, z: float) -> int:
    # z is the normal quantile inv_cdf(1 - beta), hoisted for table builds.
    guess = n / 2.0 - z * math.sqrt(n) / 2.0 - 0.5
    if n > _EXACT_LIMIT:
        return min(max(math.floor(guess), -1), n)
    if binomial_cdf(n, 0) > beta:
        return -1
    r = min(max(int(guess), 0), n)
    while r >= 0 and binomial_cdf(n, r) > beta:
        r -= 1
    while r < n and binomial_cdf(n, r + 1) <= beta:
        r += 1
    return r


def min_poor_samples(alpha: float) -> int:
    """Eq. (1): minimum window size that can recognize poor progress."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    return math.ceil(math.log2(1.0 / alpha))


@lru_cache(maxsize=64)
def _threshold_tables(
    alpha: float, beta: float, max_samples: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Precomputed ``(poor, good)`` decision thresholds for n = 0..max_samples.

    ``poor[n]`` / ``good[n]`` equal :func:`poor_threshold` /
    :func:`good_threshold` exactly; the tables are shared across every
    :class:`SignTest` with the same configuration, so the binomial tail
    walks run once per (alpha, beta, max_samples) per process and the
    per-sample hot path reduces to two tuple indexings.  The caller
    validates ``alpha`` and ``beta``.
    """
    z_poor = _NORMAL.inv_cdf(1.0 - alpha)
    z_good = _NORMAL.inv_cdf(1.0 - beta)
    poor = tuple(_poor_threshold(n, alpha, z_poor) for n in range(max_samples + 1))
    good = tuple(_good_threshold(n, beta, z_good) for n in range(max_samples + 1))
    return poor, good


@dataclass(slots=True)
class SignTest:
    """Sequential paired-sample sign test.

    Feed one boolean per testpoint via :meth:`add_sample` (``True`` when the
    sample indicates below-target progress) and receive a
    :class:`Judgment`.  On a POOR or GOOD verdict the window resets
    automatically so the next judgment starts fresh, matching the paper's
    regulator, which acts on each judgment (suspend or reset suspension
    time) and then begins collecting anew.

    ``max_samples`` bounds the window: a stream that hovers exactly at the
    target could stay indeterminate for a very long time, and an unbounded
    window would make the test increasingly sluggish.  When the bound is hit
    the window restarts without issuing a judgment.
    """

    alpha: float = 0.05
    beta: float = 0.2
    max_samples: int = 4096
    # Window state and the precomputed verdict tables, established in
    # __post_init__; excluded from init/repr/eq so the dataclass surface
    # (construction, comparison) is unchanged by slots.
    _n: int = field(init=False, repr=False, compare=False, default=0)
    _below: int = field(init=False, repr=False, compare=False, default=0)
    _poor_table: tuple = field(init=False, repr=False, compare=False)
    _good_table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must be in (0, 1), got {self.beta}")
        if self.max_samples < 8:
            raise ConfigError("max_samples must be >= 8")
        self._n = 0
        self._below = 0
        # The per-sample path indexes these tables instead of walking
        # binomial tails: after construction, add_sample never calls
        # binomial_sf/binomial_cdf and allocates nothing.
        self._poor_table, self._good_table = _threshold_tables(
            self.alpha, self.beta, self.max_samples
        )

    # -- state ---------------------------------------------------------------
    @property
    def sample_count(self) -> int:
        """Number of samples in the current window."""
        return self._n

    @property
    def below_count(self) -> int:
        """Number of below-target samples in the current window."""
        return self._below

    def reset(self) -> None:
        """Discard the current window."""
        self._n = 0
        self._below = 0

    def export_state(self) -> dict:
        """Snapshot the open sample window as a JSON-safe dict.

        The window is part of the regulator's verdict stream: dropping it on
        a save→load cycle shifts every subsequent judgment boundary.
        """
        return {"samples": self._n, "below": self._below}

    def import_state(self, state: dict) -> None:
        """Restore a window snapshot produced by :meth:`export_state`."""
        samples = int(state.get("samples", 0))
        below = int(state.get("below", 0))
        if not 0 <= below <= samples:
            raise ConfigError(
                f"below count {below} must be within [0, samples={samples}]"
            )
        if samples >= self.max_samples:
            raise ConfigError(
                f"window of {samples} samples exceeds max_samples="
                f"{self.max_samples}"
            )
        self._n = samples
        self._below = below

    # -- operation -----------------------------------------------------------
    def add_sample(self, below_target: bool) -> Judgment:
        """Record one paired comparison and return the current verdict.

        POOR and GOOD verdicts consume (reset) the window.
        """
        self._n += 1
        if below_target:
            self._below += 1
        verdict = self.evaluate(self._n, self._below)
        if verdict is not Judgment.INDETERMINATE:
            self.reset()
        elif self._n >= self.max_samples:
            self.reset()
        return verdict

    def thresholds(self, n: int) -> tuple[int, int]:
        """The decision row for a window of ``n`` samples: ``(poor_at, good_at)``.

        ``below >= poor_at`` judges POOR and ``below <= good_at`` judges
        GOOD (``poor_at = n + 1`` / ``good_at = -1`` mean the window is too
        small for that verdict).  This is the threshold-table row the
        tracing layer stamps into sign-test spans so an audit trail shows
        the exact evidence bar each sample was held to.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if n <= self.max_samples:
            return self._poor_table[n], self._good_table[n]
        return poor_threshold(n, self.alpha), good_threshold(n, self.beta)

    def evaluate(self, n: int, below: int) -> Judgment:
        """Stateless verdict for ``below`` below-target samples out of ``n``.

        Uses the precomputed threshold tables for ``n <= max_samples`` (the
        only range :meth:`add_sample` can reach); larger ad-hoc windows
        fall back to the threshold functions.
        """
        if n <= 0:
            return Judgment.INDETERMINATE
        if n <= self.max_samples:
            if below >= self._poor_table[n]:
                return Judgment.POOR
            if below <= self._good_table[n]:
                return Judgment.GOOD
            return Judgment.INDETERMINATE
        if below >= poor_threshold(n, self.alpha):
            return Judgment.POOR
        if below <= good_threshold(n, self.beta):
            return Judgment.GOOD
        return Judgment.INDETERMINATE

    @property
    def min_poor_samples(self) -> int:
        """Eq. (1) for this test's ``alpha``."""
        return min_poor_samples(self.alpha)
