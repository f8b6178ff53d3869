"""The ``Telemetry`` handle threaded through instrumented components.

One handle bundles an event sink, a metrics registry, and the current
substrate time.  Components accept ``telemetry: Telemetry | None = None``
and guard every emission with ``if telemetry is not None`` — when absent,
the instrumented path costs exactly one branch: no clock reads, no event
allocation, no dictionary lookups.  This keeps :mod:`repro.core` pure and
deterministic with telemetry off (the tier-1 guarantee).

Time: the core components are time-fed — they receive ``now`` from their
substrate and never read a clock.  The handle follows the same discipline:
the outermost instrumented call site (the regulator's testpoint, the
supervisor's poll, the BeNice loop) calls :meth:`Telemetry.tick` with the
substrate's ``now``, and deeper components (comparator, calibrator,
suspension timer) stamp their events with :attr:`Telemetry.now`.

Scoping: :meth:`Telemetry.scoped` derives a child handle that shares the
sink, registry, and clock but carries its own ``label`` (stamped into each
event's ``src`` field), so per-thread regulators emit attributable events
without the event sites knowing about threads.

Batching: by default every :meth:`Telemetry.emit` hands the event straight
to the sink.  Constructing with ``batch_interval=<seconds>`` instead
buffers hot-loop events and flushes them once per simulated interval (at
the :meth:`Telemetry.tick` that crosses the boundary), when the buffer
reaches ``batch_limit``, or at :meth:`Telemetry.flush`/:meth:`close`.
Buffering preserves emission order exactly — the sink sees the same events
in the same sequence, just in bursts — so summaries and traces are
bit-identical batched vs. unbatched (guarded by tests/obs).
"""

from __future__ import annotations

import math
import warnings

from repro.obs.events import Event
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import EventSink, FanoutSink, NullSink
from repro.obs.trace2 import TraceContext, Tracer

__all__ = ["Telemetry"]

#: Emit failures tolerated before the sink is disabled for the run.
_SINK_FAILURE_LIMIT = 3


class Telemetry:
    """Sink + metrics + substrate clock, shared by one regulation stack."""

    __slots__ = (
        "sink",
        "metrics",
        "label",
        "emitting",
        "batch_interval",
        "tracer",
        "trace_ctx",
        "flight_recorder",
        "_root",
        "_now",
        "_sink_failures",
        "_sink_disabled",
        "_buffer",
        "_batch_limit",
        "_flush_at",
    )

    def __init__(
        self,
        sink: EventSink | None = None,
        metrics: MetricsRegistry | None = None,
        label: str = "",
        batch_interval: float | None = None,
        batch_limit: int = 1024,
        tracer: Tracer | None = None,
        flight_recorder: FlightRecorder | None = None,
    ) -> None:
        if batch_interval is not None and not (batch_interval > 0.0):
            raise ValueError(
                f"batch_interval must be positive, got {batch_interval}"
            )
        if batch_limit < 1:
            raise ValueError(f"batch_limit must be >= 1, got {batch_limit}")
        self.sink: EventSink = sink if sink is not None else NullSink()
        if flight_recorder is not None:
            # Tee the recorder into the sink chain; with no primary sink it
            # *is* the sink (the ring alone still enables event emission).
            if isinstance(self.sink, NullSink):
                self.sink = flight_recorder
            else:
                self.sink = FanoutSink(self.sink, flight_recorder)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.label = label
        #: Optional span-id allocator; when set, every scope carries a
        #: :class:`~repro.obs.trace2.TraceContext` and the pipeline emits
        #: causal spans alongside its point events.
        self.tracer = tracer
        self.trace_ctx = TraceContext(tracer) if tracer is not None else None
        self.flight_recorder = flight_recorder
        #: False when the sink is a ``NullSink``: per-testpoint emit sites
        #: may then skip event *construction* entirely (metrics still run).
        self.emitting = not isinstance(self.sink, NullSink)
        #: Simulated seconds between buffered flushes, or ``None`` for
        #: direct (unbatched) emission.
        self.batch_interval = batch_interval
        self._root = self
        self._now = 0.0
        self._sink_failures = 0
        self._sink_disabled = False
        self._buffer: list[Event] | None = (
            [] if batch_interval is not None else None
        )
        self._batch_limit = batch_limit
        self._flush_at = batch_interval if batch_interval is not None else math.inf

    @property
    def now(self) -> float:
        """The most recently ticked substrate time (shared across scopes)."""
        return self._root._now

    def tick(self, now: float) -> None:
        """Feed the substrate's current time (shared across scopes).

        On a batched handle, crossing the flush boundary drains the buffer
        — so batching adds exactly one float compare to the hot tick path.
        """
        root = self._root
        root._now = now
        if now >= root._flush_at:
            root.flush()

    def scoped(self, label: str) -> "Telemetry":
        """A child handle with its own ``src`` label, sharing everything else.

        When tracing is on, the child gets its *own*
        :class:`~repro.obs.trace2.TraceContext` (per-thread causal
        cursors) over the *shared* tracer (run-unique span ids).
        """
        child = object.__new__(Telemetry)
        child.sink = self.sink
        child.metrics = self.metrics
        child.label = label
        child.emitting = self.emitting
        child.tracer = self.tracer
        child.trace_ctx = (
            TraceContext(self.tracer) if self.tracer is not None else None
        )
        child.flight_recorder = self.flight_recorder
        child._root = self._root
        child._now = 0.0  # unused; ``now`` delegates to the root
        return child

    @property
    def sink_failures(self) -> int:
        """Emit failures absorbed so far (shared across scopes)."""
        return self._root._sink_failures

    @property
    def sink_disabled(self) -> bool:
        """Whether the sink was isolated after repeated emit failures."""
        return self._root._sink_disabled

    def emit(self, event: Event) -> None:
        """Hand one event to the sink (or the batch buffer).

        A raising sink is an observability fault, not a regulation fault:
        the exception is absorbed and counted, and after
        ``_SINK_FAILURE_LIMIT`` failures the sink is disabled for the rest
        of the run (one :class:`RuntimeWarning`, regulation unaffected).
        """
        root = self._root
        if root._sink_disabled:
            return
        buffer = root._buffer
        if buffer is not None:
            buffer.append(event)
            if len(buffer) >= root._batch_limit:
                root.flush()
            return
        try:
            self.sink.emit(event)
        except Exception:
            self._note_sink_failure()

    def flush(self) -> None:
        """Drain buffered events to the sink, preserving emission order.

        A no-op on unbatched handles and empty buffers.  Failure isolation
        matches direct emission: each event that raises is counted, and
        once the sink is disabled the rest of the batch is dropped.
        """
        root = self._root
        buffer = root._buffer
        if buffer is not None:
            root._flush_at = root._now + root.batch_interval
            if buffer:
                root._buffer = []
                sink = root.sink
                for event in buffer:
                    if root._sink_disabled:
                        break
                    try:
                        sink.emit(event)
                    except Exception:
                        self._note_sink_failure()

    def _note_sink_failure(self) -> None:
        """Count one emit failure; disable the sink past the limit."""
        root = self._root
        root._sink_failures += 1
        self.metrics.counters.sink_failures.inc()
        if root._sink_failures >= _SINK_FAILURE_LIMIT:
            root._sink_disabled = True
            root.emitting = False
            self.metrics.counters.sink_disabled.inc()
            warnings.warn(
                f"telemetry sink {self.sink!r} disabled after "
                f"{root._sink_failures} emit failures; "
                "regulation continues without telemetry",
                RuntimeWarning,
                stacklevel=2,
            )

    def flight_dump(self, reason: str) -> str | None:
        """Flush buffered events and snapshot the flight recorder, if any.

        Flushing first guarantees the ring holds every event emitted so
        far, in order — the batched-telemetry contract extends to dumps.
        Returns the dump file path when one was written.
        """
        recorder = self._root.flight_recorder
        if recorder is None:
            return None
        self.flush()
        return recorder.dump(reason, t=self._root._now)

    def close(self) -> None:
        """Flush any buffered events and close the sink."""
        self.flush()
        self.sink.close()
