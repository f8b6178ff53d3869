"""Clock abstraction decoupling regulation logic from time sources.

The MS Manners control system is pure feedback logic: it consumes timestamped
progress reports and produces suspension decisions.  Nothing in
:mod:`repro.core` ever sleeps or reads the wall clock directly; instead the
embedding substrate supplies a :class:`Clock`:

* :class:`MonotonicClock` — wall-clock time for regulating real processes
  (used by :mod:`repro.realtime`).
* :class:`ManualClock` — an explicitly advanced clock for tests and for the
  discrete-event simulator (:mod:`repro.simos` drives regulators with the
  simulation time).

All clocks report seconds as floats and are required to be monotonic
non-decreasing; :class:`ManualClock` raises
:class:`~repro.core.errors.ClockError` on an attempt to move backwards.
"""

from __future__ import annotations

import math
import time
from typing import Protocol, runtime_checkable

from repro.core.errors import ClockError

__all__ = ["Clock", "MonotonicClock", "ManualClock"]


@runtime_checkable
class Clock(Protocol):
    """Anything with a ``now() -> float`` method reporting seconds."""

    def now(self) -> float:
        """Return the current time in seconds.  Must be non-decreasing."""
        ...  # pragma: no cover - protocol stub


class MonotonicClock:
    """Wall-clock seconds from :func:`time.monotonic`.

    The process-wide monotonic clock never goes backwards and is unaffected
    by system clock adjustments, which matters for a regulator that may run
    for days (the paper's calibration experiment runs for 48 hours).
    """

    __slots__ = ()

    def now(self) -> float:
        """Current monotonic wall-clock reading, in seconds."""
        # The one sanctioned wall-clock read in repro.core: this adapter
        # IS the real-time substrate's clock source (everything else must
        # take a Clock so seeded simulations stay deterministic).
        return time.monotonic()  # verify: allow-wall-clock


class ManualClock:
    """A clock advanced explicitly by the caller.

    Used by the test suite and by the simulator bridge.  Supports both
    absolute (:meth:`set`) and relative (:meth:`advance`) movement, and
    refuses to travel backwards.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if not math.isfinite(start):
            raise ClockError(f"clock start must be finite, got {start}")
        self._now = float(start)

    def now(self) -> float:
        """Current manual time, in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` seconds; return the new time."""
        if not math.isfinite(delta) or delta < 0:
            raise ClockError(f"cannot advance clock by {delta}")
        self._now += delta
        return self._now

    def set(self, when: float) -> float:
        """Set the absolute time; must not be earlier than the current time."""
        if not math.isfinite(when) or when < self._now:
            raise ClockError(
                f"cannot move clock backwards from {self._now} to {when}"
            )
        self._now = float(when)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ManualClock(now={self._now!r})"
