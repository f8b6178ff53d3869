"""Exponential suspension timer (paper section 4.1).

On each POOR judgment the regulator suspends the low-importance process for
the current suspension time and then doubles it, up to a cap; on a GOOD
judgment the suspension time resets to its initial value.  INDETERMINATE
judgments preserve the current value (section 4.2): the process keeps
running and collecting samples, but if it is eventually judged poor the
backoff continues from where it left off.

The exponential increase makes the low-importance process adapt to the time
scale of the high-importance workload: brief activity costs only short
suspensions, while sustained activity pushes the process to infrequent
execution probes.  The cap bounds the worst-case resumption latency
(the "suspension overshoot" visible in the paper's Figure 7).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.errors import ConfigError
from repro.obs import lazy as obs_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["capped_backoff", "SuspensionTimer"]

#: ``2.0 ** k`` raises :class:`OverflowError` once ``k`` exceeds the IEEE-754
#: double exponent range (k >= 1024).  Any doubling count that large has
#: certainly pinned the backoff at its cap, so the law short-circuits there.
_MAX_DOUBLINGS = 1024


def capped_backoff(initial: float, k: int, maximum: float) -> float:
    """Suspension imposed on the ``k``-th consecutive poor judgment (§4.1).

    Computes ``min(initial * 2**k, maximum)`` without tripping the two float
    overflow hazards the naive expression has: ``2.0 ** k`` raises
    :class:`OverflowError` for ``k >= 1024``, and ``initial * 2.0 ** k`` can
    silently overflow to ``inf`` for smaller ``k`` when ``initial`` is large.
    Both cases are far past any finite cap, so they clamp to ``maximum``.

    ``maximum`` may be ``inf`` (an uncapped analytic model); the result is
    then the exact doubled value while representable and ``inf`` beyond.

    The overflow clamp itself is the shared
    :func:`repro.simos.engine.clamp_horizon` helper — one policy for every
    horizon that can outgrow float math, here and in the wheel core's
    far-future band.
    """
    if k < 0:
        raise ConfigError(f"doubling count must be non-negative, got {k}")
    if not initial > 0:
        raise ConfigError(f"initial suspension must be positive, got {initial}")
    from repro.simos.engine import clamp_horizon

    grown = math.inf if k >= _MAX_DOUBLINGS else initial * (2.0 ** k)
    return clamp_horizon(grown, maximum)


class SuspensionTimer:
    """Tracks the suspension duration across judgments.

    The timer distinguishes the *current* suspension time (what the next
    POOR judgment will impose) from the *consecutive poor count*, which the
    analytic model in :mod:`repro.core.queueing` calls ``k``: the suspension
    imposed on the k-th consecutive poor judgment is
    ``min(initial * 2**k, maximum)`` for ``k = 0, 1, 2, ...``.
    """

    __slots__ = ("initial", "maximum", "_current", "_consecutive_poor", "_telemetry")

    def __init__(
        self,
        initial: float = 1.0,
        maximum: float = 256.0,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        # Explicit finiteness checks: NaN compares False against everything,
        # so ``initial <= 0`` alone would wave a NaN straight through and
        # poison every subsequent backoff computation (§4.1 sanity checks).
        if not math.isfinite(initial) or initial <= 0:
            raise ConfigError(
                f"initial suspension must be finite and positive, got {initial}"
            )
        if not math.isfinite(maximum) or maximum < initial:
            raise ConfigError(
                f"maximum suspension {maximum} must be finite and >= "
                f"initial {initial}"
            )
        self.initial = float(initial)
        self.maximum = float(maximum)
        self._current = self.initial
        self._consecutive_poor = 0
        self._telemetry = telemetry

    # -- state -----------------------------------------------------------------
    @property
    def current(self) -> float:
        """Suspension the next POOR judgment will impose, in seconds."""
        return self._current

    @property
    def consecutive_poor(self) -> int:
        """POOR judgments since the last GOOD judgment (or start)."""
        return self._consecutive_poor

    @property
    def saturated(self) -> bool:
        """Whether the suspension time has reached its cap."""
        return self._current >= self.maximum

    # -- transitions -------------------------------------------------------------
    def on_poor(self) -> float:
        """Record a POOR judgment; return the suspension to impose now.

        The returned value is the *pre-doubling* current suspension time, so
        the first poor judgment suspends for ``initial`` seconds, the second
        for ``2 * initial``, and so on — matching section 4.1: "On each
        testpoint that indicates poor progress, the suspension time is
        doubled, up to a set limit."
        """
        # Clamp to the configured band: the invariant
        # ``initial <= current <= maximum`` survives any call sequence, so
        # downstream sleep/park math never sees a negative or runaway value.
        imposed = min(max(self._current, self.initial), self.maximum)
        self._current = min(imposed * 2.0, self.maximum)
        self._consecutive_poor += 1
        return imposed

    def on_good(self) -> None:
        """Record a GOOD judgment; restore the initial suspension time."""
        tel = self._telemetry
        if tel is not None and self._consecutive_poor > 0:
            tel.emit(
                obs_events.BackoffReset(
                    t=tel.now, src=tel.label, from_level=self._consecutive_poor
                )
            )
            ctx = tel.trace_ctx if tel.emitting else None
            if ctx is not None:
                # Parent: the GOOD judgment that triggered this reset (the
                # comparator judged before the regulator called on_good).
                tel.emit(
                    obs_events.Span(
                        t=tel.now,
                        src=tel.label,
                        span_id=ctx.new_id(),
                        parent=ctx.judgment,
                        name="backoff_reset",
                        attrs={"from_level": self._consecutive_poor},
                    )
                )
            tel.metrics.counters.backoff_resets.inc()
        self._current = self.initial
        self._consecutive_poor = 0

    def reset(self) -> None:
        """Alias for :meth:`on_good`, for symmetry with other components."""
        self.on_good()

    # -- persistence -------------------------------------------------------------
    def export_state(self) -> dict:
        """Return the timer's backoff position as a JSON-safe dict.

        Captures both the current suspension time (including saturation at
        the cap) and the consecutive-poor count, so a restored regulator
        resumes the exponential schedule exactly where it left off rather
        than restarting from ``initial``.
        """
        return {
            "current": self._current,
            "consecutive_poor": self._consecutive_poor,
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        The restored suspension time is clamped into this timer's configured
        ``[initial, maximum]`` band, so a snapshot taken under a different
        configuration can never overshoot the cap or undershoot the floor.
        """
        current = float(state.get("current", self.initial))
        if math.isnan(current):
            raise ConfigError("suspension snapshot current must not be NaN")
        consecutive_poor = int(state.get("consecutive_poor", 0))
        if consecutive_poor < 0:
            raise ConfigError(
                f"consecutive_poor must be non-negative, got {consecutive_poor}"
            )
        self._current = min(max(current, self.initial), self.maximum)
        self._consecutive_poor = consecutive_poor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SuspensionTimer(current={self._current}, "
            f"consecutive_poor={self._consecutive_poor})"
        )
