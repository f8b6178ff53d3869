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
  violations, and crashes;
* :mod:`repro.obs.lazy` — the event classes and ``scope_label`` as the
  instrumented modules reach them, importing :mod:`repro.obs.events` only
  when the first event is built.

Overhead contract: every instrumented component accepts
``telemetry: Telemetry | None = None``; with ``None`` (the default) the
added cost is a single pointer comparison per call site — no clock reads,
no allocation — so determinism and the tier-1 suite are unaffected.  The
disabled path is free at import too: this package resolves its names on
first use, and a regulating process with telemetry off loads no
``repro.obs`` module but this one and :mod:`repro.obs.lazy`.  See
``docs/observability.md``.
"""

__all__ = ["JsonlSink", "MemorySink", "MetricsRegistry", "Telemetry", "Tracer"]

#: Defining module of each name above.
_HOMES = {
    "JsonlSink": "repro.obs.sinks",
    "MemorySink": "repro.obs.sinks",
    "MetricsRegistry": "repro.obs.metrics",
    "Telemetry": "repro.obs.telemetry",
    "Tracer": "repro.obs.trace2",
}


def __getattr__(name: str):
    """Resolve the names above on first use (PEP 562).

    Every instrumented module imports this package, so an eager import
    would build the whole telemetry stack in processes that never turn it
    on.
    """
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(home), name)
    globals()[name] = value
    return value
