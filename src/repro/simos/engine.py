"""Discrete-event simulation engine.

A minimal, fast event core: a binary heap of ``(time, sequence, callback,
args)`` entries.  Everything in :mod:`repro.simos` — the CPU scheduler,
disks, bus, timers, and the MS Manners bridge — is built from these
primitives.

Determinism: two events scheduled for the same instant fire in scheduling
order (the monotone sequence number breaks ties), so a seeded simulation
replays exactly.  Time is a float in seconds, starting at 0.

Hot-path design (profile-driven; see docs/performance.md):

* The steady-state scheduling API is :meth:`Engine.post_at` /
  :meth:`Engine.post_after`.  They push a **plain tuple** onto the heap —
  no event object is allocated, no per-event attribute writes happen, and
  ``heapq`` compares entries element-wise in C (the unique sequence number
  means comparison never reaches the callback).  Steady-state simulation
  therefore allocates ~zero event objects beyond the tuples the heap
  itself owns.
* :meth:`Engine.call_at` / :meth:`Engine.call_after` return a cancellable
  :class:`EventHandle`.  Handles are the rare path (retained timers,
  preemptible CPU slices); they are tuple subclasses so they live in the
  same heap and compare in C against plain entries.
* ``pending`` is derived from four monotone counters (scheduled, fired,
  cancelled, drained) instead of being written on every schedule/fire.
* ``now`` is a plain attribute, because devices read it on every request;
  only :meth:`Engine.step` and the run loops write it.  :meth:`Engine.run`
  without an event budget, which is how every scenario runs, takes one
  loop that neither tests a budget nor counts the events it fires.
* The heap is compacted when cancelled handles dominate it — a long
  regulator suspension cancels and reschedules timers repeatedly, and
  without compaction those inert entries would bloat the heap and slow
  every push/pop.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable

__all__ = [
    "EventHandle",
    "Engine",
    "SimulationError",
    "clamp_horizon",
    "TICK_INDEX_LIMIT",
]

_INF = math.inf

#: Compact the heap when it holds more than this many cancelled entries
#: *and* they outnumber the live ones.  Small enough to bound waste, large
#: enough that compaction cost amortizes to O(1) per cancellation.
_COMPACT_MIN_STALE = 64

#: The largest tick index the wheel core treats as addressable: past this,
#: ``when * ticks_per_second`` is outside exact-integer float territory (and
#: may be ``inf``), so entries belong in the far-future overflow band.  One
#: shared constant so the wheel's overflow test and the backoff clamp agree
#: on where "effectively forever" starts.
TICK_INDEX_LIMIT = 2.0 ** 63


class SimulationError(RuntimeError):
    """The simulation was driven into an invalid state."""


def clamp_horizon(when: float, maximum: float) -> float:
    """Overflow-safe ``min(when, maximum)`` for scheduling horizons.

    Exponential backoff growth and far-future timers both produce times
    whose intermediate float math overflows — ``initial * 2**k`` reaches
    ``inf`` after enough doublings, and ``when * ticks_per_second`` leaves
    the exactly-representable integer range past :data:`TICK_INDEX_LIMIT`.
    Both the suspension backoff (:func:`repro.core.suspension.capped_backoff`)
    and the wheel core's far-future band clamp through this one helper so
    the overflow policy lives in one place: ``inf`` and anything at or past
    ``maximum`` clamp to ``maximum``, while NaN is rejected loudly — a NaN
    horizon would silently disable whatever deadline it guards.
    """
    if when != when:
        raise SimulationError("horizon must not be NaN")
    if when >= maximum:
        return maximum
    return when


class EventHandle(tuple):
    """A cancellable reference to one scheduled event.

    Heap entries are ``(when, seq, fn, args)`` tuples; a handle *is* its
    heap entry (a tuple subclass), so plain posted entries and cancellable
    handles share one heap and compare element-wise in C.  Tuple subclasses
    cannot carry nonempty ``__slots__``, so the two mutable fields
    (``cancelled``, ``_engine``) live in the instance dict — acceptable
    because handles are the rare path.
    """

    # verify: allow-slots (tuple subclass; nonempty __slots__ unsupported)

    #: Class-level default: creation writes only ``_engine``; cancelling or
    #: firing shadows this with an instance attribute.
    cancelled = False

    _engine: "Engine"

    @property
    def when(self) -> float:
        """Absolute firing time."""
        return self[0]

    @property
    def seq(self) -> int:
        """Scheduling-order tie-breaker."""
        return self[1]

    @property
    def fn(self) -> Callable[..., None] | None:
        """The callback, or ``None`` once cancelled or fired."""
        return None if self.cancelled else self[2]

    @property
    def args(self) -> tuple:
        return () if self.cancelled else self[3]

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True  # The heap entry stays behind, inert.
        self._engine._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else f"fn={self[2]!r}"
        return f"<EventHandle when={self[0]} seq={self[1]} {state}>"


class Engine:
    """The event heap and simulation clock."""

    # verify: allow-slots (the verify invariant monitor shadows step/call_at
    # and friends through the instance dict; Engine is one object per
    # simulation, so slots buy nothing here anyway)

    def __init__(self) -> None:
        #: Current simulation time, in seconds.  A plain attribute, read on
        #: every request; only :meth:`step` and the run loops write it.
        self.now = 0.0
        self._heap: list[tuple] = []
        self._seq = 0  # total events ever scheduled (posts + handles)
        self._events_fired = 0
        self._cancelled = 0  # handles cancelled before firing
        self._drained = 0  # live entries discarded by drain()
        self._stale = 0  # cancelled handles still sitting in the heap
        self._monitored = False  # routes run() through step() for audit hooks
        #: Tick-latency instrumentation (attach_tick_observer); ``None``
        #: keeps run() on the uninstrumented fast loops.
        self._tick_observe: Callable[[float], None] | None = None
        self._tick_sample_every = 1024

    # -- counters --------------------------------------------------------------
    @property
    def events_fired(self) -> int:
        """Total events executed (for instrumentation and sanity checks)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Scheduled events not yet fired or cancelled (O(1), derived)."""
        return self._seq - self._events_fired - self._cancelled - self._drained

    def next_event_time(self) -> float | None:
        """Firing time of the next live event, or ``None`` when drained.

        Skips (and accounts) cancelled entries at the heap head, so the
        returned time is exactly what the next :meth:`step` will fire at.
        Both event cores expose this; wall-clock adapters use it to sleep
        until the next deadline instead of polling.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head.__class__ is not tuple and head.cancelled:
                heapq.heappop(heap)
                self._stale -= 1
                continue
            return head[0]
        return None

    # -- scheduling ----------------------------------------------------------
    def _reject_time(self, when: float) -> None:
        """Cold path: raise the precise error for an out-of-range time."""
        if not math.isfinite(when):
            raise SimulationError(f"event time must be finite, got {when}")
        raise SimulationError(
            f"cannot schedule event at {when} before current time {self.now}"
        )

    def _reject_delay(self, delay: float, when: float) -> None:
        """Cold path: raise the precise error for a bad relative delay."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        self._reject_time(when)

    def post_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``when``; no handle.

        The allocation-free hot path: use this whenever the caller never
        cancels (completion callbacks, device pumps, frame delivery).  The
        chained comparison rejects NaN, ±inf, and past times in one check.
        """
        if not (self.now <= when < _INF):
            self._reject_time(when)
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1

    def post_after(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` seconds; no handle.

        The check reads ``delay`` itself: a negative delay too small to
        move ``now + delay`` off ``now`` is rejected like any other.
        """
        when = self.now + delay
        if not (0.0 <= delay and when < _INF):
            self._reject_delay(delay, when)
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``when``; cancellable."""
        if not (self.now <= when < _INF):
            self._reject_time(when)
        handle = tuple.__new__(EventHandle, (when, self._seq, fn, args))
        handle._engine = self
        self._seq += 1
        heapq.heappush(self._heap, handle)
        return handle

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds; cancellable."""
        when = self.now + delay
        if not (0.0 <= delay and when < _INF):
            self._reject_delay(delay, when)
        handle = tuple.__new__(EventHandle, (when, self._seq, fn, args))
        handle._engine = self
        self._seq += 1
        heapq.heappush(self._heap, handle)
        return handle

    def _note_cancel(self) -> None:
        """A live heap entry was cancelled; compact if inert entries dominate.

        Threshold rule, evaluated on live counters in O(1): rebuild only
        when cancelled entries are numerous (``> _COMPACT_MIN_STALE``) and
        form the majority of the heap (``2 * stale > len(heap)``, i.e.
        stale entries outnumber live ones).  Each rebuild then removes
        more than half the heap, so compaction stays amortized O(1) per
        cancellation — no rescan happens on every trigger check.
        """
        self._cancelled += 1
        stale = self._stale + 1
        self._stale = stale
        if stale > _COMPACT_MIN_STALE and (stale << 1) > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        ``heapify`` over ``(when, seq)``-ordered entries preserves the
        firing order exactly, so compaction is invisible to the simulation.
        """
        self._heap = [
            h for h in self._heap if h.__class__ is tuple or not h.cancelled
        ]
        heapq.heapify(self._heap)
        self._stale = 0

    # -- instrumentation -------------------------------------------------------
    def attach_tick_observer(
        self,
        observe: Callable[[float], None] | None,
        sample_every: int = 1024,
    ) -> None:
        """Feed mean per-event wall latency to ``observe`` while running.

        Routes :meth:`run` through an instrumented loop that reads the
        wall clock once every ``sample_every`` fired events and reports
        the mean seconds-per-event of the batch — a tick-latency
        histogram at a sampling cost of two function calls per batch, so
        the measurement cannot disturb what it measures.  The clock reads
        never touch simulated time or the event stream, so seeded runs
        stay bit-identical.  Pass ``None`` to detach and restore the
        uninstrumented fast loops.
        """
        if sample_every < 1:
            raise SimulationError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self._tick_observe = observe
        self._tick_sample_every = sample_every

    # -- execution ------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event; return ``False`` if the heap is empty."""
        heap = self._heap
        while heap:
            head = heapq.heappop(heap)
            if head.__class__ is not tuple:
                if head.cancelled:
                    self._stale -= 1
                    continue
                head.cancelled = True  # Consumed: a late cancel() is a no-op.
            self.now = head[0]
            self._events_fired += 1
            head[2](*head[3])
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run events until the heap drains, ``until`` passes, or the budget ends.

        Returns the simulation time when execution stopped.  With ``until``,
        the clock is advanced to exactly ``until`` even if the last event
        fired earlier (so back-to-back ``run`` calls tile time seamlessly).
        """
        if self._monitored:
            return self._run_stepped(until, max_events)
        if self._tick_observe is not None:
            return self._run_instrumented(until, max_events)
        heap = self._heap
        pop = heapq.heappop
        if max_events is None:
            # The budget-free loop every scenario takes: no budget test and
            # no fired count; a missing ``until`` never stops it.
            stop = _INF if until is None else until
            while heap:
                head = heap[0]
                if head.__class__ is not tuple:
                    if head.cancelled:
                        pop(heap)
                        self._stale -= 1
                        continue
                    if head[0] > stop:
                        break
                    head.cancelled = True  # Consumed: a late cancel() is a no-op.
                elif head[0] > stop:
                    break
                pop(heap)
                self.now = head[0]
                self._events_fired += 1
                head[2](*head[3])
        else:
            fired = 0
            while heap:
                head = heap[0]
                if head.__class__ is not tuple and head.cancelled:
                    pop(heap)
                    self._stale -= 1
                    continue
                if until is not None and head[0] > until:
                    break
                if fired >= max_events:
                    return self.now
                pop(heap)
                if head.__class__ is not tuple:
                    head.cancelled = True
                self.now = head[0]
                self._events_fired += 1
                head[2](*head[3])
                fired += 1
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def _run_instrumented(
        self, until: float | None, max_events: int | None
    ) -> float:
        """run() with tick-latency sampling (see attach_tick_observer).

        A clone of the bounded loop that also serves the drain-all case;
        the only additions per event are two integer ops, with the wall
        clock read once per ``sample_every``-event batch.  Wall time here
        is measurement-only: it feeds the observer (a metrics histogram)
        and never reaches simulated time, events, or digests.
        """
        heap = self._heap
        pop = heapq.heappop
        observe = self._tick_observe
        every = self._tick_sample_every
        stamp = time.perf_counter()  # verify: allow-wall-clock (latency metric only)
        batch = 0
        fired = 0
        budget_hit = False
        while heap:
            head = heap[0]
            if head.__class__ is not tuple and head.cancelled:
                pop(heap)
                self._stale -= 1
                continue
            if until is not None and head[0] > until:
                break
            if max_events is not None and fired >= max_events:
                budget_hit = True
                break
            pop(heap)
            if head.__class__ is not tuple:
                head.cancelled = True
            self.now = head[0]
            self._events_fired += 1
            head[2](*head[3])
            fired += 1
            batch += 1
            if batch >= every:
                now_wall = time.perf_counter()  # verify: allow-wall-clock (latency metric only)
                observe((now_wall - stamp) / batch)
                stamp = now_wall
                batch = 0
        if batch:
            now_wall = time.perf_counter()  # verify: allow-wall-clock (latency metric only)
            observe((now_wall - stamp) / batch)
        if budget_hit:
            return self.now
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def _run_stepped(self, until: float | None, max_events: int | None) -> float:
        """run() routed through ``self.step()`` so monitors see every fire.

        The verify invariant monitor shadows ``step`` (and the scheduling
        methods) in the instance dict; the fast loops above would bypass
        that shadow, so a monitored engine takes this path instead.
        """
        fired = 0
        while self._heap:
            head = self._heap[0]
            if head.__class__ is not tuple and head.cancelled:
                heapq.heappop(self._heap)
                self._stale -= 1
                continue
            if until is not None and head[0] > until:
                break
            if max_events is not None and fired >= max_events:
                return self.now
            self.step()
            fired += 1
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def drain(self) -> None:
        """Discard all pending events (used when tearing a simulation down)."""
        self._drained += self.pending
        for head in self._heap:
            if head.__class__ is not tuple:
                head.cancelled = True  # Late cancel() calls stay no-ops.
        self._heap.clear()
        self._stale = 0
