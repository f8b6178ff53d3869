"""Exact binomial tail probabilities for the sign test.

The statistical comparator (paper section 6.1) uses a paired-sample sign
test, whose decision thresholds are quantiles of the Binomial(n, 1/2)
distribution.  The window sizes involved are small (tens of samples), so we
compute tails exactly in log space rather than with a normal approximation.
This module is dependency-free; the test suite cross-checks it against
:mod:`scipy.stats`.

All functions treat the number of "successes" as the count of below-target
samples ``r`` out of ``n`` paired comparisons.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add

__all__ = [
    "log_binomial_pmf",
    "binomial_pmf",
    "binomial_sf",
    "binomial_cdf",
]

#: Tails over windows up to this size sum a cached row of the pmf instead of
#: evaluating each term; it covers the sign test's exact region.  Larger
#: windows keep the per-term path, so the row cache cannot grow with ``n``.
_ROW_LIMIT = 256

#: ``math.lgamma(k + 1)`` (log k!) for k = 0.._ROW_LIMIT, which
#: :func:`_pmf_row` reads instead of calling ``lgamma`` twice per term.
_LOG_FACTORIAL = [math.lgamma(k + 1) for k in range(_ROW_LIMIT + 1)]


@lru_cache(maxsize=65536)
def log_binomial_pmf(n: int, r: int, p: float = 0.5) -> float:
    """Return ``log P(R = r)`` for ``R ~ Binomial(n, p)``.

    Returns ``-inf`` for impossible outcomes.  ``n`` must be non-negative
    and ``p`` in [0, 1].
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if r < 0 or r > n:
        return -math.inf
    if p == 0.0:
        return 0.0 if r == 0 else -math.inf
    if p == 1.0:
        return 0.0 if r == n else -math.inf
    return (
        math.lgamma(n + 1)
        - math.lgamma(r + 1)
        - math.lgamma(n - r + 1)
        + r * math.log(p)
        + (n - r) * math.log1p(-p)
    )


def binomial_pmf(n: int, r: int, p: float = 0.5) -> float:
    """Return ``P(R = r)`` for ``R ~ Binomial(n, p)``."""
    lp = log_binomial_pmf(n, r, p)
    return 0.0 if lp == -math.inf else math.exp(lp)


@lru_cache(maxsize=2 * (_ROW_LIMIT + 1))
def _pmf_row(n: int, p: float) -> tuple[float, ...]:
    """``binomial_pmf(n, k, p)`` for k = 0..n <= ``_ROW_LIMIT``, bit for bit."""
    if not 0.0 < p < 1.0:
        return tuple(binomial_pmf(n, k, p) for k in range(n + 1))
    lg, exp = _LOG_FACTORIAL, math.exp
    top = lg[n]
    log_p, log_q = math.log(p), math.log1p(-p)
    # log_binomial_pmf's expression, in its order of evaluation, with
    # lg[k] == math.lgamma(k + 1).
    return tuple(
        exp(top - lg[k] - lg[n - k] + k * log_p + (n - k) * log_q) for k in range(n + 1)
    )


def _pmf_sum(n: int, lo: int, hi: int, p: float) -> float:
    """``P(lo <= R <= hi)``, summed term by term from ``lo`` upwards."""
    if n <= _ROW_LIMIT:
        terms = _pmf_row(n, p)[lo : hi + 1]
    else:
        terms = (binomial_pmf(n, k, p) for k in range(lo, hi + 1))
    # reduce, not sum(): Python 3.12's sum() compensates float rounding.
    return reduce(add, terms, 0.0)


def binomial_sf(n: int, r: int, p: float = 0.5) -> float:
    """Return the upper tail ``P(R >= r)`` for ``R ~ Binomial(n, p)``.

    This is the survival function evaluated *inclusively* at ``r``, which is
    the form the sign test needs: the probability, under the null
    hypothesis, of seeing at least as many below-target samples as were
    observed.
    """
    if r <= 0:
        return 1.0
    if r > n:
        return 0.0
    # Sum the smaller tail for accuracy, then complement if needed.
    if r > (n + 1) // 2 or p <= 0.5:
        return min(_pmf_sum(n, r, n, p), 1.0)
    return max(0.0, 1.0 - binomial_cdf(n, r - 1, p))


def binomial_cdf(n: int, r: int, p: float = 0.5) -> float:
    """Return the lower tail ``P(R <= r)`` for ``R ~ Binomial(n, p)``."""
    if r < 0:
        return 0.0
    if r >= n:
        return 1.0
    return min(_pmf_sum(n, 0, r, p), 1.0)
