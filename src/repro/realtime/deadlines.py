"""Wall-clock deadline scheduling on a simulation event core.

The realtime adapter and the regulator daemon both keep small sets of
future deadlines — periodic calibration saves, journal sweeps, snapshot
compactions.  Before this module each site hand-rolled the same
``last_done + interval`` arithmetic against :func:`time.monotonic`,
which meant the deployable paths never exercised the engine cores at
all: ``REPRO_ENGINE`` flipped the simulator but left the daemon on ad
hoc bookkeeping.

:class:`DeadlineQueue` closes that gap.  It is a thin wall-clock facade
over :func:`repro.simos.kernel.make_engine`, so the *same* core the
simulator runs on (the binary heap by default, ``REPRO_ENGINE=wheel``
for the timing wheel) orders the daemon's deadlines.  Wall time maps
onto engine time through a fixed epoch taken at construction; firing is
explicit — callers :meth:`poll` with the current wall clock (typically
right after an ``asyncio.sleep`` or condition wait sized by
:meth:`next_wait`), and every deadline at or before that instant fires
in exact ``(deadline, insertion)`` order.

The queue is deliberately not thread-safe: each owner (the adapter
under its lock, a daemon loop on its event loop) drives its own queue.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable

from repro.simos.kernel import make_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simos.engine import EventHandle

__all__ = ["DeadlineQueue"]


class DeadlineQueue:
    """Monotonic-clock deadlines ordered by a simulation event core.

    ``engine_core`` follows :func:`make_engine` resolution: ``None``
    consults ``REPRO_ENGINE`` and defaults to the heap.  ``clock`` is
    injectable for deterministic tests; production callers leave it on
    :func:`time.monotonic`.
    """

    __slots__ = ("_engine", "_clock", "_epoch")

    def __init__(
        self,
        engine_core: str | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._engine = make_engine(engine_core)
        self._clock = clock
        self._epoch = clock()

    # -- introspection ---------------------------------------------------------
    @property
    def engine(self):
        """The underlying event core (diagnostics; core-specific stats)."""
        return self._engine

    @property
    def pending(self) -> int:
        """Deadlines scheduled and not yet fired or cancelled."""
        return self._engine.pending

    # -- scheduling ------------------------------------------------------------
    def _engine_time(self, wall: float) -> float:
        # The engine clock never runs backwards; a caller-supplied "now"
        # earlier than the last poll clamps forward rather than raising.
        return max(wall - self._epoch, self._engine.now)

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> "EventHandle":
        """Run ``fn(*args)`` ``delay`` seconds from the current wall clock.

        Returns a cancellable handle.  Negative delays clamp to "due at
        the next poll" rather than raising — wall-clock callers routinely
        compute small negative slacks under scheduling jitter.
        """
        return self.schedule_at(self._clock() + max(delay, 0.0), fn, *args)

    def schedule_at(
        self, wall_deadline: float, fn: Callable[..., None], *args: Any
    ) -> "EventHandle":
        """Run ``fn(*args)`` once the wall clock reaches ``wall_deadline``."""
        return self._engine.call_at(self._engine_time(wall_deadline), fn, *args)

    # -- firing ----------------------------------------------------------------
    def poll(self, now: float | None = None) -> int:
        """Fire every deadline due at wall time ``now``; return the count.

        Callbacks may reschedule themselves (periodic deadlines); a
        callback scheduling at-or-before ``now`` fires within the same
        poll, exactly as the simulation cores handle same-tick posts.
        """
        wall = self._clock() if now is None else now
        engine = self._engine
        before = engine.events_fired
        engine.run(until=self._engine_time(wall))
        return engine.events_fired - before

    def next_wait(self, now: float | None = None) -> float | None:
        """Seconds until the earliest pending deadline.

        ``0.0`` when a deadline is already due, ``None`` when nothing is
        scheduled.  Sized for ``asyncio.wait_for`` / ``Condition.wait``
        timeouts so pollers sleep exactly as long as the queue allows.
        """
        head = self._engine.next_event_time()
        if head is None:
            return None
        wall = self._clock() if now is None else now
        return max(head - self._engine_time(wall), 0.0)
