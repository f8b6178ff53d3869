"""``repro profile`` — measure where simulation time (and memory) goes.

The hot-loop optimizations in this tree were found by profiling, not
guessing (docs/performance.md); this module keeps that loop closed.  It
runs one seeded scenario trial under :mod:`cProfile` — and, on request,
:mod:`tracemalloc` — and renders a top-N report keyed to the exact
(scenario, mode, seed, scale) so a hot spot can be re-measured after a
change with the same command line:

    repro profile defrag_database --seed 1000 --top 25
    repro profile defrag_idle --memory

Profiling overhead inflates absolute times; the report is for *ranking*
call sites, not for throughput numbers (the repo benchmark,
``perfbench/run.py``, measures those).
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass

__all__ = ["ProfileReport", "profile_scenario"]


@dataclass(frozen=True, slots=True)
class ProfileReport:
    """One profiling run: the workload key, its stats, and the rendering."""

    scenario: str
    mode: str
    seed: int
    scale: float
    top: int
    #: Wall time of the profiled trial (cProfile overhead included).
    wall_time_s: float
    #: Events the simulator fired during the trial.
    events_fired: int
    #: The rendered top-N report (cumulative + internal time tables).
    text: str
    #: Top allocation sites, or ``None`` when tracemalloc was not requested.
    memory_text: str | None = None

    def render(self) -> str:
        """The full human-readable report."""
        header = (
            f"profile: scenario={self.scenario} mode={self.mode!r} "
            f"seed={self.seed} scale={self.scale}\n"
            f"wall time {self.wall_time_s:.3f}s (cProfile overhead included), "
            f"{self.events_fired:,} events fired\n"
        )
        parts = [header, self.text]
        if self.memory_text is not None:
            parts.append(self.memory_text)
        return "\n".join(parts)


def _top_tables(profiler: cProfile.Profile, top: int) -> str:
    """Render the two pstats tables that matter: cumulative and tottime."""
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative")
    buffer.write(f"top {top} by cumulative time (who owns the time):\n")
    stats.print_stats(top)
    buffer.write(f"top {top} by internal time (where the cycles burn):\n")
    stats.sort_stats("tottime")
    stats.print_stats(top)
    return buffer.getvalue()


def _memory_table(snapshot, top: int) -> str:
    """Render tracemalloc's top allocation sites, grouped by line."""
    lines = [f"top {top} allocation sites (tracemalloc, grouped by line):"]
    total = 0
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        lines.append(
            f"  {stat.size / 1024:9.1f} KiB  {stat.count:>8} blocks  "
            f"{frame.filename}:{frame.lineno}"
        )
        total += stat.size
    lines.append(f"  (top-{top} total {total / 1024:.1f} KiB)")
    return "\n".join(lines) + "\n"


def profile_scenario(
    scenario: str,
    mode: str = "MS Manners",
    seed: int = 1000,
    scale: float = 0.05,
    top: int = 25,
    memory: bool = False,
) -> ProfileReport:
    """Profile one seeded scenario trial; return the rendered report.

    Raises ``ValueError`` for an unknown scenario or mode (same message
    the trial entry point itself raises), before any profiling starts.
    """
    import time

    from repro.experiments.scenarios import measured_trial

    if memory:
        import tracemalloc

        tracemalloc.start()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    try:
        profiler.enable()
        try:
            result = measured_trial(scenario, mode, seed, scale=scale)
        finally:
            profiler.disable()
        wall = time.perf_counter() - start
        memory_text = None
        if memory:
            memory_text = _memory_table(tracemalloc.take_snapshot(), top)
    finally:
        if memory:
            tracemalloc.stop()

    return ProfileReport(
        scenario=scenario,
        mode=mode,
        seed=seed,
        scale=scale,
        top=top,
        wall_time_s=wall,
        events_fired=int(result.get("events_fired", 0)),
        text=_top_tables(profiler, top),
        memory_text=memory_text,
    )
