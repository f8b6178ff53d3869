"""Simulated CPU: strict priority with round-robin time slicing.

Models the scheduling behaviour the paper's experiments depend on:

* **Strict priority** — a runnable thread at a higher priority level always
  runs before any thread at a lower level, and preempts a lower-level
  thread the moment it becomes runnable.  This is what "reducing the
  defragmenter's CPU priority" means in Figures 3-5: the low-importance
  process gets the CPU only when nothing at normal priority wants it.
* **Round-robin within a level** — equal-priority threads share the CPU in
  quantum-sized slices, giving the roughly *symmetric* CPU contention the
  paper's core assumption requires (section 3).

Threads never call this module directly; they yield
:class:`~repro.simos.effects.UseCPU` and the kernel forwards the request
here.  The CPU calls back into the kernel when a burst completes.

Priorities follow a simplified Windows NT layering (section 2's
"time-honored method"): IDLE < LOW < NORMAL < HIGH.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.simos.engine import Engine, EventHandle, SimulationError

__all__ = ["CpuPriority", "CpuStats", "CPU"]

_INF = math.inf


class CpuPriority(enum.IntEnum):
    """Simplified NT-style CPU priority classes (higher value wins)."""

    IDLE = 0
    LOW = 1
    NORMAL = 2
    HIGH = 3


@dataclass(slots=True)
class CpuStats:
    """Aggregate CPU accounting."""

    busy_time: float = 0.0
    bursts_completed: int = 0
    preemptions: int = 0
    context_switches: int = 0


class _Burst:
    """One thread's outstanding CPU demand."""

    __slots__ = ("tid", "remaining", "priority", "on_done")

    def __init__(
        self, tid: Hashable, remaining: float, priority: int, on_done: Callable[[], None]
    ) -> None:
        self.tid = tid
        self.remaining = remaining
        self.priority = priority
        self.on_done = on_done


class CPU:
    """A single processor with priority run queues."""

    __slots__ = (
        "_engine",
        "_quantum",
        "_queues",
        "_current",
        "_slice_started",
        "_slice_event",
        "_per_thread_busy",
        "stats",
    )

    def __init__(self, engine: Engine, quantum: float = 0.02) -> None:
        if not quantum > 0:
            # Written so that NaN fails too.
            raise SimulationError(f"quantum must be positive, got {quantum}")
        self._engine = engine
        self._quantum = quantum
        self._queues: dict[int, deque[_Burst]] = {}
        self._current: _Burst | None = None
        self._slice_started = 0.0
        self._slice_event: EventHandle | None = None
        self._per_thread_busy: dict[Hashable, float] = {}
        self.stats = CpuStats()

    # -- introspection --------------------------------------------------------
    @property
    def quantum(self) -> float:
        """Round-robin time slice, in seconds."""
        return self._quantum

    @property
    def running(self) -> Hashable | None:
        """The thread currently holding the processor, if any."""
        return self._current.tid if self._current is not None else None

    def thread_time(self, tid: Hashable) -> float:
        """Accumulated CPU service time consumed by ``tid``."""
        total = self._per_thread_busy.get(tid, 0.0)
        if self._current is not None and self._current.tid == tid:
            total += self._engine.now - self._slice_started
        return total

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of time the CPU was busy since ``since``."""
        elapsed = self._engine.now - since
        if elapsed <= 0:
            return 0.0
        busy = self.stats.busy_time
        if self._current is not None:
            busy += self._engine.now - self._slice_started
        return min(busy / elapsed, 1.0)

    # -- requests ---------------------------------------------------------------
    def request(
        self,
        tid: Hashable,
        service: float,
        priority: int,
        on_done: Callable[[], None],
    ) -> None:
        """Queue a CPU burst of ``service`` seconds for thread ``tid``.

        ``on_done`` fires (via the event queue) when the full service has
        been delivered.  A thread may have at most one outstanding burst.
        """
        if not (0.0 <= service < _INF):
            raise SimulationError(
                f"CPU service must be finite and non-negative, got {service}"
            )
        if service == 0.0:
            # Zero-length bursts complete immediately but still round-trip
            # through the event queue for deterministic ordering.
            self._engine.post_after(0.0, on_done)
            return
        burst = _Burst(tid, service, priority, on_done)
        if self._current is not None and priority > self._current.priority:
            self._preempt()
        self._enqueue(burst)
        self._dispatch()

    def remove(self, tid: Hashable) -> float | None:
        """Forcibly remove ``tid``'s outstanding burst (debug suspension).

        Returns the remaining service so the burst can be re-queued on
        resume, or ``None`` if the thread had no outstanding burst.
        """
        if self._current is not None and self._current.tid == tid:
            burst = self._current
            self._stop_slice()
            return burst.remaining
        for queue in self._queues.values():
            for burst in queue:
                if burst.tid == tid:
                    queue.remove(burst)
                    return burst.remaining
        return None

    # -- internals -----------------------------------------------------------------
    def _enqueue(self, burst: _Burst) -> None:
        self._queues.setdefault(burst.priority, deque()).append(burst)

    def _next_burst(self) -> _Burst | None:
        for priority in sorted(self._queues, reverse=True):
            queue = self._queues[priority]
            if queue:
                return queue.popleft()
        return None

    def _dispatch(self) -> None:
        if self._current is not None:
            return
        burst = self._next_burst()
        if burst is None:
            return
        self._current = burst
        self._slice_started = self._engine.now
        slice_len = min(self._quantum, burst.remaining)
        self._slice_event = self._engine.call_after(slice_len, self._on_slice_end)
        self.stats.context_switches += 1

    def _charge_current(self) -> None:
        assert self._current is not None
        used = self._engine.now - self._slice_started
        self._current.remaining -= used
        self.stats.busy_time += used
        self._per_thread_busy[self._current.tid] = (
            self._per_thread_busy.get(self._current.tid, 0.0) + used
        )

    def _stop_slice(self) -> None:
        """Halt the current slice without requeueing (caller handles burst)."""
        if self._slice_event is not None:
            self._slice_event.cancel()
            self._slice_event = None
        if self._current is not None:
            self._charge_current()
            self._current = None
        self._dispatch()

    def _preempt(self) -> None:
        """A higher-priority burst arrived: put the current one back."""
        assert self._current is not None
        if self._slice_event is not None:
            self._slice_event.cancel()
            self._slice_event = None
        self._charge_current()
        burst = self._current
        self._current = None
        self.stats.preemptions += 1
        if burst.remaining > 0:
            # Preempted threads go to the *front* of their level so they
            # finish their interrupted slice first.
            self._queues.setdefault(burst.priority, deque()).appendleft(burst)
        else:
            self._engine.post_after(0.0, burst.on_done)

    def _on_slice_end(self) -> None:
        assert self._current is not None
        self._slice_event = None
        self._charge_current()
        burst = self._current
        self._current = None
        if burst.remaining > 1e-12:
            self._enqueue(burst)
        else:
            self.stats.bursts_completed += 1
            self._engine.post_after(0.0, burst.on_done)
        self._dispatch()
