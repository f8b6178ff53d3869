"""Causal decision tracing for the regulation pipeline (trace v2).

The paper's central claim is that regulation decisions are explainable
from progress rates alone: a suspension happens because the sign test
accumulated enough below-target samples (§4.2) against a calibrated
target (§4.3).  Flat point events cannot answer "why was thread X
suspended at t=412s, and with what evidence?" without re-running the
simulation; :class:`~repro.obs.events.Span` records can.  Every pipeline
step — testpoint sample, sign-test accumulation, judgment, calibration
update, suspension/backoff decision — emits one span carrying its
decision inputs and a causal ``parent`` link (plus ``links`` from a
judgment to every sample in its window), so a suspension reconstructs as
a tree rooted at the testpoints that caused it.

Span names and their causal edges::

    testpoint ──────────────┬─> signtest_sample ─┐ (links)
        │ (parent)          │                    ├─> judgment ─> suspension
        └─> calibration_update                   │       └─────> backoff_reset
                            └────────────────────┘ (parent of judgment =
                                                    triggering testpoint)

plus parentless ``watchdog_eviction`` and ``violation`` spans from the
supervisor watchdog and the verify monitors.

Three pieces live here:

* :class:`Tracer` — the run-wide span-id allocator (deterministic:
  ids are assigned in emission order, starting at 1; 0 means "no
  parent").
* :class:`TraceContext` — the per-scope causal cursor a
  :class:`~repro.obs.telemetry.Telemetry` handle carries when tracing is
  on.  Emission sites read/update it to thread parent links through the
  pipeline without the components knowing about each other.
* :func:`explain` / :func:`explain_events` — reconstruct and render the
  causal audit trail of one suspension decision (the ``repro obs
  explain`` CLI verb).

Zero-cost contract: components reach the tracer only through
``telemetry.trace_ctx``, which is ``None`` unless a tracer was attached —
the disabled path stays one attribute load inside blocks that already
required ``telemetry is not None`` and ``telemetry.emitting``.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from repro.core.errors import MannersError
from repro.obs.events import Event, Span

__all__ = [
    "Tracer",
    "TraceContext",
    "SPAN_NAMES",
    "spans_of",
    "span_index",
    "explain",
    "explain_events",
]

#: Every span name the pipeline emits, for validation and docs.
SPAN_NAMES: tuple[str, ...] = (
    "testpoint",
    "signtest_sample",
    "judgment",
    "suspension",
    "backoff_reset",
    "calibration_update",
    "watchdog_eviction",
    "violation",
)


class Tracer:
    """Run-wide span-id allocator shared by every scope of one telemetry root.

    Ids are handed out in emission order starting at 1 (0 is the null
    parent), so a seeded scenario produces the identical span forest on
    every run — the determinism ``repro obs explain`` relies on.
    """

    __slots__ = ("_next_id",)

    def __init__(self) -> None:
        self._next_id = 1

    @property
    def spans_issued(self) -> int:
        """How many span ids have been allocated so far."""
        return self._next_id - 1

    def next_id(self) -> int:
        """Allocate the next span id."""
        span_id = self._next_id
        self._next_id = span_id + 1
        return span_id


class TraceContext:
    """Per-scope causal cursor: the most recent span ids of each pipeline step.

    One context per telemetry scope (i.e. per regulated thread), all
    sharing the root's :class:`Tracer`.  The controller stamps
    ``testpoint`` on every processed testpoint; the comparator appends
    sample span ids to ``window`` and stamps ``judgment`` when a window
    closes; the suspension timer and calibrator read those cursors as
    parent links.
    """

    __slots__ = ("tracer", "testpoint", "window", "judgment")

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: Span id of the scope's current testpoint span (0 = none yet).
        self.testpoint = 0
        #: Sample span ids accumulated in the open sign-test window.
        self.window: list[int] = []
        #: Span id of the scope's most recent judgment span (0 = none yet).
        self.judgment = 0

    def new_id(self) -> int:
        """Allocate a span id from the shared tracer.

        :meth:`Tracer.next_id` inlined: one call per span, not two.
        """
        tracer = self.tracer
        span_id = tracer._next_id
        tracer._next_id = span_id + 1
        return span_id


# -- reconstruction -----------------------------------------------------------


def spans_of(events: Iterable[Event]) -> list[Span]:
    """The span records of a trace, in emission order."""
    return [e for e in events if isinstance(e, Span)]


def span_index(spans: Iterable[Span]) -> dict[int, Span]:
    """Spans keyed by ``span_id`` for parent/link chasing."""
    return {s.span_id: s for s in spans}


def _pick_suspension(
    spans: Sequence[Span], thread: str, at: float | None
) -> Span:
    """The suspension span to explain: latest for ``thread`` at/before ``at``."""
    candidates = [s for s in spans if s.name == "suspension" and s.src == thread]
    if not candidates:
        threads = sorted({s.src for s in spans if s.name == "suspension"})
        hint = f" (threads with suspensions: {', '.join(threads)})" if threads else ""
        raise MannersError(
            f"no suspension spans for thread {thread!r} in trace{hint}"
        )
    if at is not None:
        eligible = [s for s in candidates if s.t <= at]
        if not eligible:
            raise MannersError(
                f"no suspension of thread {thread!r} at or before t={at}; "
                f"the first is at t={candidates[0].t:.1f}s"
            )
        return eligible[-1]
    return candidates[-1]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _threshold_line(attrs: dict) -> str:
    poor_at, good_at = attrs.get("poor_at"), attrs.get("good_at")
    n = attrs.get("samples", attrs.get("n"))
    if poor_at is None and good_at is None:
        return ""
    parts = []
    if poor_at is not None:
        parts.append(f"POOR at >= {poor_at} below")
    if good_at is not None:
        parts.append(f"GOOD at <= {good_at} below")
    return f"threshold row n={n}: " + ", ".join(parts)


def _describe_testpoint(span: Span) -> str:
    a = span.attrs
    bits = [f"testpoint #{span.span_id} at t={span.t:.1f}s"]
    if "duration" in a:
        bits.append(f"measured {_fmt(a['duration'])}s")
    target = a.get("target")
    if target is not None:
        bits.append(f"target {_fmt(target)}s")
    if a.get("probation"):
        bits.append("probation")
    if not a.get("calibrated", True):
        bits.append("uncalibrated")
    return ", ".join(bits)


def _describe_sample(span: Span, index: dict[int, Span]) -> list[str]:
    a = span.attrs
    verdict = "below target" if a.get("below") else "at/above target"
    lines = [
        f"sample {a.get('n', '?')} at t={span.t:.1f}s: "
        f"measured {_fmt(a.get('measured', '?'))}s vs "
        f"target {_fmt(a.get('target', '?'))}s ({verdict}; "
        f"{a.get('below_count', '?')} below so far)"
    ]
    threshold = _threshold_line(a)
    if threshold:
        lines.append(f"  {threshold}")
    parent = index.get(span.parent)
    if parent is not None and parent.name == "testpoint":
        lines.append(f"  from {_describe_testpoint(parent)}")
    return lines


def _backoff_history(spans: Sequence[Span], upto: Span) -> list[str]:
    """The doubling ladder that led to ``upto``: suspensions of the same
    thread since the last backoff reset (or the start of trace)."""
    history: list[Span] = []
    for s in spans:
        if s.src != upto.src or s.t > upto.t:
            continue
        if s.name == "backoff_reset":
            history.clear()
        elif s.name == "suspension":
            history.append(s)
            if s is upto:
                break
    return [
        f"level {s.attrs.get('level', '?')}: {_fmt(s.attrs.get('delay', '?'))}s "
        f"at t={s.t:.1f}s"
        for s in history
    ]


def explain_events(
    events: Iterable[Event], thread: str, at: float | None = None
) -> str:
    """Render the causal audit trail of one suspension decision.

    Walks the span forest from the chosen suspension span (the latest for
    ``thread``, or the latest at/before ``at``) back to the testpoint
    samples that caused it: suspension -> judgment -> sign-test samples
    (with the threshold-table row active at each step) -> testpoints, plus
    the backoff-doubling ladder since the last reset.  Raises
    :class:`~repro.core.errors.MannersError` when the trace has no
    matching decision — the CLI maps that to a non-zero exit.
    """
    spans = spans_of(events)
    if not spans:
        raise MannersError(
            "trace contains no spans; re-run with tracing enabled "
            "(repro faults run writes spans by default)"
        )
    index = span_index(spans)
    suspension = _pick_suspension(spans, thread, at)
    a = suspension.attrs
    out = [
        f"why was {thread!r} suspended at t={suspension.t:.1f}s?",
        "",
        f"suspension #{suspension.span_id}: {_fmt(a.get('delay', '?'))}s "
        f"at backoff level {a.get('level', '?')}"
        + (
            f" (probation floor raised it by {_fmt(a['probation_delay'])}s)"
            if a.get("probation_delay")
            else ""
        ),
    ]
    judgment = index.get(suspension.parent)
    if judgment is not None and judgment.name == "judgment":
        ja = judgment.attrs
        out.append(
            f"└─ judgment #{judgment.span_id}: {str(ja.get('judgment', '?')).upper()} "
            f"at t={judgment.t:.1f}s — {ja.get('below', '?')} of "
            f"{ja.get('samples', '?')} window samples below target"
        )
        threshold = _threshold_line(ja)
        if threshold:
            out.append(f"   {threshold}")
        if "time_to_detect" in ja:
            out.append(
                f"   time to detect: {_fmt(ja['time_to_detect'])}s "
                "from window open to verdict"
            )
        samples = [
            index[sid]
            for sid in judgment.links
            if sid in index and index[sid].name == "signtest_sample"
        ]
        for sample in samples:
            first, *rest = _describe_sample(sample, index)
            out.append(f"   ├─ {first}")
            out.extend(f"   │ {line}" for line in rest)
        trigger = index.get(judgment.parent)
        if trigger is not None and trigger.name == "testpoint":
            out.append(f"   └─ decided at {_describe_testpoint(trigger)}")
    else:
        parent = index.get(suspension.parent)
        if parent is not None and parent.name == "testpoint":
            out.append(f"└─ imposed at {_describe_testpoint(parent)} (no new judgment)")
        else:
            out.append("└─ no recorded judgment (probation floor or carry-over delay)")
    ladder = _backoff_history(spans, suspension)
    if len(ladder) > 1:
        out.append("")
        out.append("backoff doubling since last reset:")
        out.extend(f"  {line}" for line in ladder)
    return "\n".join(out)


def explain(
    path: str | os.PathLike[str], thread: str, at: float | None = None
) -> str:
    """:func:`explain_events` over a JSONL trace file."""
    from repro.obs.report import read_events

    return explain_events(read_events(path), thread, at=at)
