"""Execution and progress traces for the paper's dynamic-behaviour figures.

Two recorders:

* :class:`DutyTrace` — subscribes to kernel thread events and records, per
  traced thread, the intervals during which the thread is *executing* from
  the application's point of view: not blocked in the MS Manners testpoint,
  not debug-suspended.  (Waiting on disk or CPU still counts as executing —
  that is the thread doing its work.)  This regenerates Figure 7 (defrag
  duty during the database workload) and Figure 9 (Groveler thread duty).
* :class:`TestpointTrace` — records per-processed-testpoint measurements
  (time, measured duration, target duration, judgment) from the regulation
  bridge, and aggregates the *normalized target duration* over fixed
  windows: ``sum(target durations) / sum(measured durations)``, the
  quantity on Figure 8's y-axis (values above 1 mean progress above the
  target rate).
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from typing import Iterable

from repro.core.signtest import Judgment
from repro.obs import lazy as obs_events
from repro.simos.kernel import Kernel, SimThread

__all__ = ["DutyTrace", "TestpointRecord", "TestpointTrace"]

_time_of = operator.itemgetter(0)


class DutyTrace:
    """Binary executing/blocked timeline per traced thread.

    Subscribes to the kernel's thread-event bus on construction; call
    :meth:`close` (or use the instance as a context manager) to detach when
    tracing is done, so discarded traces stop costing a callback per event.
    """

    __slots__ = ("_kernel", "_traced", "_blocked_labels", "_closed")

    def __init__(self, kernel: Kernel, blocked_labels: tuple[str, ...] = ("manners",)) -> None:
        self._kernel = kernel
        self._blocked_labels = blocked_labels
        self._traced: dict[SimThread, list[tuple[float, int]]] = {}
        self._closed = False
        kernel.add_listener(self._on_event)

    def close(self) -> None:
        """Detach from the kernel event bus (idempotent); data stays readable."""
        if not self._closed:
            self._kernel.remove_listener(self._on_event)
            self._closed = True

    def __enter__(self) -> "DutyTrace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def watch(self, thread: SimThread) -> None:
        """Start tracing a thread (records its current state immediately)."""
        if thread not in self._traced:
            self._traced[thread] = [(self._kernel.now, self._flag(thread))]

    def _flag(self, thread: SimThread) -> int:
        if not thread.alive:
            return 0
        if thread.suspended:
            return 0
        if thread.blocked_on in self._blocked_labels:
            return 0
        return 1

    def _on_event(self, kind: str, thread: SimThread, now: float) -> None:
        series = self._traced.get(thread)
        if series is None:
            return
        flag = self._flag(thread)
        if flag != series[-1][1]:
            series.append((now, flag))

    # -- queries ---------------------------------------------------------------
    def series(self, thread: SimThread) -> list[tuple[float, int]]:
        """The (time, 0/1) transition list, oldest first."""
        if thread not in self._traced:
            raise KeyError(f"thread {thread!r} is not traced")
        return list(self._traced[thread])

    def executing_time(self, thread: SimThread, start: float, end: float) -> float:
        """Seconds the thread spent executing within [start, end]."""
        if end < start:
            raise ValueError(f"end {end} before start {start}")
        series = self._traced.get(thread)
        if not series:
            return 0.0
        # Transition times never decrease, so the segments that overlap
        # [start, end] are one slice: from the last one beginning at or
        # before ``start`` to the last one beginning before ``end``.  The
        # segments outside it add nothing to the sum, so walking only the
        # slice, in order, gives the same float as walking them all.
        first = bisect.bisect_right(series, start, key=_time_of) - 1
        stop = bisect.bisect_left(series, end, key=_time_of)
        last = len(series) - 1
        total = 0.0
        for i in range(first if first > 0 else 0, stop):
            t, flag = series[i]
            seg_end = series[i + 1][0] if i < last else max(end, t)
            lo = max(t, start)
            hi = min(seg_end, end)
            if hi > lo and flag:
                total += hi - lo
        return total

    def duty_fraction(self, thread: SimThread, start: float, end: float) -> float:
        """Fraction of [start, end] the thread spent executing."""
        if end <= start:
            return 0.0
        return self.executing_time(thread, start, end) / (end - start)

    def binned(
        self, thread: SimThread, start: float, end: float, bin_width: float
    ) -> list[tuple[float, float]]:
        """(bin start, executing fraction) samples — the plot series."""
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        out = []
        t = start
        while t < end:
            hi = min(t + bin_width, end)
            out.append((t, self.duty_fraction(thread, t, hi)))
            t = hi
        return out


@dataclass(frozen=True, slots=True)
class TestpointRecord:
    """One processed testpoint as seen by the regulation bridge."""

    when: float
    duration: float
    target_duration: float | None
    judgment: Judgment | None
    delay: float


class TestpointTrace:
    """Chronological record of processed testpoints for one thread."""

    __slots__ = ("_records")

    def __init__(self) -> None:
        self._records: list[TestpointRecord] = []

    def record(
        self,
        when: float,
        duration: float,
        target_duration: float | None,
        judgment: Judgment | None,
        delay: float,
    ) -> None:
        """Append one processed-testpoint observation."""
        self._records.append(
            TestpointRecord(when, duration, target_duration, judgment, delay)
        )

    def record_event(self, event: "obs_events.TestpointProcessed") -> None:
        """Append one telemetry ``testpoint`` event (the event-bus form)."""
        self.record(
            event.t,
            event.duration,
            event.target_duration,
            None if event.judgment is None else Judgment(event.judgment),
            event.delay,
        )

    @classmethod
    def from_events(cls, events: "Iterable[obs_events.Event]") -> "TestpointTrace":
        """Build a trace from a telemetry event stream (e.g. a JSONL replay).

        Only ``testpoint`` events contribute; everything else is ignored, so
        a full mixed trace can be passed as-is.
        """
        trace = cls()
        for event in events:
            if isinstance(event, obs_events.TestpointProcessed):
                trace.record_event(event)
        return trace

    @property
    def records(self) -> list[TestpointRecord]:
        """All records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def normalized_progress(
        self, start: float, end: float, window: float = 2.0
    ) -> list[tuple[float, float]]:
        """Figure 8's series: normalized target duration per window.

        For each window, ``sum(target) / sum(measured)`` over the
        testpoints whose timestamps fall inside it; windows with no
        comparable testpoints are skipped.  Values > 1 mean the thread
        progressed faster than its target rate.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        times = [r.when for r in self._records]
        out = []
        t = start
        while t < end:
            hi = min(t + window, end)
            lo_i = bisect.bisect_left(times, t)
            hi_i = bisect.bisect_left(times, hi)
            measured = 0.0
            target = 0.0
            for record in self._records[lo_i:hi_i]:
                if record.target_duration is None or record.duration <= 0:
                    continue
                measured += record.duration
                target += record.target_duration
            if measured > 0:
                out.append((t, target / measured))
            t = hi
        return out

    def mean_target_duration(self, start: float, end: float) -> float | None:
        """Mean target duration between testpoints in [start, end] (Fig. 10)."""
        times = [r.when for r in self._records]
        lo_i = bisect.bisect_left(times, start)
        hi_i = bisect.bisect_left(times, end)
        values = [
            r.target_duration
            for r in self._records[lo_i:hi_i]
            if r.target_duration is not None
        ]
        if not values:
            return None
        return sum(values) / len(values)
