"""Turn a JSONL telemetry trace into a human-readable regulation report.

Two layers:

* :func:`read_events` — parse a JSONL trace (as written by
  :class:`~repro.obs.sinks.JsonlSink`) back into typed events.
* :func:`summarize` — render a report: event census, regulation timeline
  (phase changes, judgments, suspension/backoff/reset cycles, evictions),
  aggregate table (duty cycle, suspension histogram), and an ASCII plot of
  the suspension backoff over time (via :mod:`repro.analysis.ascii_plot`).

The CLI front end is ``repro obs summarize TRACE.jsonl``.
"""

from __future__ import annotations

import json
import os
from collections import Counter as TallyCounter
from typing import Iterable, Sequence

from repro.analysis.ascii_plot import sparkline, timeseries_plot
from repro.core.errors import MannersError
from repro.obs.events import (
    BackoffReset,
    BeNicePoll,
    Event,
    JudgmentIssued,
    PhaseTransition,
    SampleDiscarded,
    SlotEvicted,
    Span,
    SuspensionEnded,
    SuspensionStarted,
    TestpointProcessed,
    event_from_dict,
)
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "read_events",
    "metrics_from_events",
    "summarize",
    "summarize_file",
]

#: Timeline rows beyond this are elided around the middle to keep the
#: report terminal-sized; first and last cycles always survive.
_MAX_TIMELINE_ROWS = 60


def read_events(path: str | os.PathLike[str]) -> list[Event]:
    """Parse a JSONL trace file into typed events (order preserved).

    Raises :class:`~repro.core.errors.MannersError` naming
    ``<path>:<line>`` on malformed input: a line that is not JSON, not a
    JSON object, or not a well-formed event of a known kind.  A
    JSON error on the *final* line is reported as a likely-truncated file
    (a crashed writer leaves a partial last record), so the CLI can give
    an actionable message instead of a bare parse error.
    """
    events: list[Event] = []
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    last_line = len(lines)
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            if line_number == last_line:
                raise MannersError(
                    f"{path}:{line_number}: trace appears truncated — the "
                    f"final line is not valid JSON ({exc}); the writer "
                    "likely crashed mid-record or the file was cut short"
                ) from exc
            raise MannersError(
                f"{path}:{line_number}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise MannersError(
                f"{path}:{line_number}: expected a JSON object, got "
                f"{type(data).__name__}"
            )
        try:
            events.append(event_from_dict(data))
        except (MannersError, TypeError, ValueError) as exc:
            raise MannersError(
                f"{path}:{line_number}: not a telemetry event: {exc}"
            ) from exc
    return events


def metrics_from_events(events: Iterable[Event]) -> MetricsRegistry:
    """Rebuild distribution metrics from a trace's events.

    Gives offline traces the same histogram vocabulary the live registry
    uses: ``suspension_delay`` (imposed suspensions), ``suspension_slept``
    (served suspensions), ``progress_rate`` (measured per-testpoint
    progress rates), and ``time_to_detect`` (window-open to verdict, from
    judgment spans).  Powers the percentile section of :func:`summarize`
    and ``repro obs export --format prom``.
    """
    registry = MetricsRegistry()
    for event in events:
        if isinstance(event, SuspensionStarted):
            if event.delay > 0:
                registry.histograms.suspension_delay.observe(event.delay)
        elif isinstance(event, SuspensionEnded):
            if event.slept > 0:
                registry.histograms.suspension_slept.observe(event.slept)
        elif isinstance(event, TestpointProcessed):
            if event.duration > 0 and event.deltas:
                rate = (sum(event.deltas) / len(event.deltas)) / event.duration
                registry.histograms.progress_rate.observe(rate)
        elif isinstance(event, Span):
            if event.name == "judgment" and "time_to_detect" in event.attrs:
                registry.histograms.time_to_detect.observe(
                    float(event.attrs["time_to_detect"])
                )
    return registry


def _percentile_lines(registry: MetricsRegistry) -> list[str]:
    lines: list[str] = []
    for name, hist in sorted(registry.histogram_map().items()):
        if not hist.count:
            continue
        p50, p90, p99 = (hist.quantile(q) for q in (0.5, 0.9, 0.99))
        lines.append(
            f"{name:<18} n={hist.count:<6} "
            f"p50<={p50:<8.3g} p90<={p90:<8.3g} p99<={p99:<8.3g} "
            f"max={hist.max:.3g}"
        )
    return lines


def _timeline_rows(events: Sequence[Event]) -> list[tuple[str, bool]]:
    """``(row, structural)`` pairs; structural rows survive elision.

    Judgments and discards are the routine bulk of a long trace; phase
    changes, suspensions, resets, and evictions are the regulation
    story and must always stay visible.
    """
    rows: list[tuple[str, bool]] = []
    for event in events:
        prefix = f"{event.t:10.1f}s  {event.src or '-':<16} "
        if isinstance(event, PhaseTransition):
            rows.append((prefix + f"phase -> {event.phase}", True))
        elif isinstance(event, JudgmentIssued):
            rows.append(
                (
                    prefix
                    + f"{event.judgment.upper()} "
                    + f"({event.below}/{event.samples} below target)",
                    False,
                )
            )
        elif isinstance(event, SuspensionStarted):
            rows.append(
                (prefix + f"SUSPEND {event.delay:.2f}s (backoff level {event.level})", True)
            )
        elif isinstance(event, SuspensionEnded):
            rows.append((prefix + f"resumed after {event.slept:.2f}s", True))
        elif isinstance(event, BackoffReset):
            rows.append((prefix + f"RESET backoff (was level {event.from_level})", True))
        elif isinstance(event, SlotEvicted):
            rows.append(
                (
                    prefix
                    + f"EVICTED from slot of {event.process} (idle {event.idle_for:.1f}s)",
                    True,
                )
            )
        elif isinstance(event, SampleDiscarded):
            rows.append(
                (prefix + f"discarded sample ({event.reason}, {event.duration:.2f}s)", False)
            )
    return rows


def _elide(rows: list[tuple[str, bool]], limit: int) -> list[str]:
    if len(rows) <= limit:
        return [text for text, _ in rows]
    # First pass: collapse the interior of long routine runs, keeping every
    # structural row (phase/suspend/reset/evict) in place.
    out: list[str] = []
    run: list[str] = []

    def flush() -> None:
        if len(run) > 5:
            out.extend(run[:2])
            out.append(f"        ... {len(run) - 4} rows elided ...")
            out.extend(run[-2:])
        else:
            out.extend(run)
        run.clear()

    for text, structural in rows:
        if structural:
            flush()
            out.append(text)
        else:
            run.append(text)
    flush()
    if len(out) > limit:  # still too long: fall back to head/tail around the middle
        head = out[: limit // 2]
        tail = out[-(limit - len(head) - 1):]
        out = head + [f"        ... {len(out) - len(head) - len(tail)} rows elided ..."] + tail
    return out


def _aggregate_lines(events: Sequence[Event]) -> list[str]:
    testpoints = [e for e in events if isinstance(e, TestpointProcessed)]
    judgments = [e for e in events if isinstance(e, JudgmentIssued)]
    suspensions = [e for e in events if isinstance(e, SuspensionStarted)]
    resets = [e for e in events if isinstance(e, BackoffReset)]
    polls = [e for e in events if isinstance(e, BeNicePoll)]

    executed = sum(e.duration for e in testpoints)
    suspended = sum(e.delay for e in testpoints)
    lines = [
        f"processed testpoints      {len(testpoints)}",
        f"judgments                 "
        f"{sum(1 for j in judgments if j.judgment == 'poor')} poor / "
        f"{sum(1 for j in judgments if j.judgment == 'good')} good",
        f"suspensions imposed       {len(suspensions)} "
        f"(total {suspended:.1f}s, max level "
        f"{max((s.level for s in suspensions), default=0)})",
        f"backoff resets            {len(resets)}",
    ]
    if executed + suspended > 0:
        lines.append(
            f"duty cycle                {executed / (executed + suspended):.1%} "
            f"({executed:.1f}s executing / {suspended:.1f}s suspended)"
        )
    if testpoints:
        span = testpoints[-1].t - testpoints[0].t
        if span > 0:
            lines.append(f"testpoint rate            {len(testpoints) / span:.2f}/s")
    if polls:
        idle = sum(1 for p in polls if not p.changed)
        lines.append(
            f"benice polls              {len(polls)} ({idle} without progress, "
            f"final interval {polls[-1].interval:.2f}s)"
        )
    discards = TallyCounter(
        e.reason for e in events if isinstance(e, SampleDiscarded)
    )
    if discards:
        lines.append(
            "discards                  "
            + ", ".join(f"{reason}={count}" for reason, count in sorted(discards.items()))
        )
    return lines


def summarize(events: Iterable[Event], width: int = 72) -> str:
    """Render the regulation report for a trace (see module docstring)."""
    events = sorted(events, key=lambda e: e.t)
    if not events:
        return "empty trace (no events)"
    census = TallyCounter(e.kind for e in events)
    out: list[str] = []
    out.append(
        f"trace: {len(events)} events, "
        f"t = {events[0].t:.1f}s .. {events[-1].t:.1f}s"
    )
    out.append("")
    out.append("event census:")
    for kind, count in census.most_common():
        out.append(f"  {kind:<20} {count}")

    rows = _timeline_rows(events)
    if rows:
        out.append("")
        out.append("regulation timeline:")
        out.extend(_elide(rows, _MAX_TIMELINE_ROWS))

    out.append("")
    out.append("aggregates:")
    out.extend("  " + line for line in _aggregate_lines(events))

    percentiles = _percentile_lines(metrics_from_events(events))
    if percentiles:
        out.append("")
        out.append("percentiles (bucket resolution):")
        out.extend("  " + line for line in percentiles)

    suspensions = [
        e for e in events if isinstance(e, SuspensionStarted) and e.delay > 0
    ]
    if len(suspensions) >= 2:
        out.append("")
        out.append(
            timeseries_plot(
                [(e.t, e.delay) for e in suspensions],
                width=width,
                height=10,
                title="suspension delay over time (s)",
                y_label="delay",
                x_label="t (s)",
            )
        )
    testpoints = [
        e
        for e in events
        if isinstance(e, TestpointProcessed)
        and e.target_duration is not None
        and e.duration > 0
    ]
    if len(testpoints) >= 2:
        ratios = [min(e.target_duration / e.duration, 3.0) for e in testpoints]
        step = max(1, len(ratios) // width)
        resampled = [
            sum(ratios[i : i + step]) / len(ratios[i : i + step])
            for i in range(0, len(ratios), step)
        ]
        out.append("")
        out.append("normalized progress (target/measured duration; >1 = above target):")
        out.append("  " + sparkline(resampled, lo=0.0, hi=3.0))
    return "\n".join(out)


def summarize_file(path: str | os.PathLike[str], width: int = 72) -> str:
    """:func:`summarize` for a JSONL trace file."""
    return summarize(read_events(path), width=width)
