"""Regulation telemetry: structured events, metrics, sinks, and reports.

The paper's whole mechanism is an *inference* — contention is deduced from
progress-rate dynamics — so observing those dynamics is the only way to
debug a misbehaving regulator or compare runs.  This package provides:

* :mod:`repro.obs.events` — typed, versioned event records for every
  regulation-relevant moment (testpoints, judgments, suspensions,
  calibration, slot/token arbitration, BeNice polls);
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry with
  point-in-time snapshots;
* :mod:`repro.obs.sinks` — null (default), in-memory, and JSONL sinks;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` handle threaded
  through the decision engines and substrates;
* :mod:`repro.obs.report` — JSONL trace → regulation timeline + aggregate
  report (the ``repro obs summarize`` CLI);
* :mod:`repro.obs.trace2` — causal decision tracing: spans with
  parent/causal links over the whole regulation pipeline, and the
  reconstruction behind ``repro obs explain``;
* :mod:`repro.obs.flightrec` — a bounded ring-buffer flight recorder that
  snapshots the last N spans/events to disk on faults, invariant
  violations, and crashes.

Overhead contract: every instrumented component accepts
``telemetry: Telemetry | None = None``; with ``None`` (the default) the
added cost is a single pointer comparison per call site — no clock reads,
no allocation — so determinism and the tier-1 suite are unaffected.  See
``docs/observability.md``.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import JsonlSink, MemorySink
from repro.obs.telemetry import Telemetry
from repro.obs.trace2 import Tracer

__all__ = ["JsonlSink", "MemorySink", "MetricsRegistry", "Telemetry", "Tracer"]
