"""Named benchmarks for the ``repro bench`` CLI, with machine-readable output.

Each named benchmark runs one contention scenario through the parallel
trial engine and reports performance, not just correctness:

* wall time and trials/sec for the requested ``--jobs`` level;
* a serial (``jobs=1``) reference pass when ``jobs > 1``, giving
  ``speedup_vs_serial`` *and* a parity check — the parallel results must
  equal the serial ones exactly, or the report says so;
* simulator throughput (``events_per_sec``, from the engine's
  ``events_fired`` counters);
* a digest of the trial results, so two runs (e.g. CI's ``--jobs 2`` and
  ``--jobs 1`` passes) can be compared for determinism across processes.

The report is written as ``BENCH_<name>.json`` so the perf trajectory of
the simulator and the harness is tracked from run to run.  Timing passes
always execute trials (cache reads are bypassed — a cache hit would time
the filesystem, not the simulator); fresh results are stored into the
trial cache afterwards unless ``--no-cache`` is given, so subsequent
*sweeps* skip the work.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.analysis.parallel import (
    ParallelRunner,
    TrialCache,
    code_fingerprint,
    resolve_jobs,
)
from repro.analysis.runner import trial_count

__all__ = [
    "BenchSpec",
    "BENCHMARKS",
    "MICROBENCHMARKS",
    "run_benchmark",
    "write_report",
]


@dataclass(frozen=True)
class BenchSpec:
    """One named benchmark: a scenario, a regulation mode, and seeds."""

    #: Scenario key in :data:`repro.experiments.MEASURED_SCENARIOS`.
    scenario: str
    #: Regulation mode value (e.g. ``"MS Manners"``).
    mode: str
    #: First seed; trial ``i`` runs with ``seed_base + i``.
    seed_base: int
    #: Default workload scale (overridable via ``REPRO_SCALE``).
    scale: float
    #: One-line description for ``repro bench --list``.
    summary: str


#: The named benchmarks ``repro bench`` can run.
BENCHMARKS: dict[str, BenchSpec] = {
    "defrag_idle": BenchSpec(
        scenario="defrag_idle",
        mode="unregulated",
        seed_base=3000,
        scale=0.05,
        summary="defragmenter alone on an idle machine (Figure 5 scenario)",
    ),
    "defrag_database": BenchSpec(
        scenario="defrag_database",
        mode="MS Manners",
        seed_base=1000,
        scale=0.05,
        summary="regulated defragmenter vs database load (Figure 3 scenario)",
    ),
    "groveler_setup": BenchSpec(
        scenario="groveler_setup",
        mode="MS Manners",
        seed_base=2000,
        scale=0.05,
        summary="regulated Groveler vs installer (Figure 4 scenario)",
    ),
}

#: In-process microbenchmarks (no trial fan-out; one line each for --list).
#: Values are ``(report factory path, summary)``; the factory is resolved
#: lazily from :mod:`repro.analysis.hotpath` so ``--list`` stays cheap.
MICROBENCHMARKS: dict[str, tuple[str, str]] = {
    "engine_hotpath": (
        "engine_hotpath_report",
        "event-core microbench: post/call chains + cancel churn, heap vs wheel",
    ),
    "engine_wheel": (
        "engine_wheel_report",
        "dense-fleet microbench: 4096 concurrent timer chains, wheel vs heap",
    ),
    "engine_sparse": (
        "engine_sparse_report",
        "sparse-chain microbench: near-idle timer chains, wheel vs heap",
    ),
}


def _results_digest(results: list) -> str:
    """Order-sensitive digest of a trial-result list (canonical JSON)."""
    text = json.dumps(results, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_benchmark(
    name: str,
    jobs: int | None = None,
    trials: int | None = None,
    scale: float | None = None,
    use_cache: bool = True,
    cache_root: str | Path | None = None,
    micro_args: dict | None = None,
) -> dict:
    """Run the named benchmark; return the ``BENCH_<name>.json`` payload.

    ``jobs`` resolves as explicit > ``REPRO_JOBS`` > all cores; ``trials``
    as explicit > ``REPRO_TRIALS`` > 15.  With ``jobs > 1`` a serial
    reference pass also runs, yielding ``speedup_vs_serial`` and
    ``parity_ok`` (parallel results exactly equal to serial).

    ``micro_args`` are keyword overrides for a microbenchmark's report
    factory (e.g. ``{"rounds": 8000, "burst": 80}`` for the hotpath churn
    knob); ignored for scenario benchmarks.
    """
    from repro.experiments.scenarios import measured_trial

    if name in MICROBENCHMARKS:
        from repro.analysis import hotpath

        factory = getattr(hotpath, MICROBENCHMARKS[name][0])
        return factory(**(micro_args or {}))
    try:
        spec = BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from "
            f"{sorted(BENCHMARKS) + sorted(MICROBENCHMARKS)}"
        ) from None
    jobs = resolve_jobs(jobs)
    n = trials if trials is not None else trial_count()
    scale = scale if scale is not None else spec.scale
    trial = partial(measured_trial, spec.scenario, spec.mode, scale=scale)

    with ParallelRunner(jobs=jobs) as runner:
        start = time.perf_counter()
        results = runner.run(trial, trials=n, seed_base=spec.seed_base)
        wall = time.perf_counter() - start

        serial_wall = None
        speedup = None
        parity_ok = None  # stays null when no serial reference pass ran
        if jobs > 1:
            start = time.perf_counter()
            serial_results = ParallelRunner(jobs=1).run(
                trial, trials=n, seed_base=spec.seed_base
            )
            serial_wall = time.perf_counter() - start
            speedup = serial_wall / wall if wall > 0 else None
            parity_ok = serial_results == results

    events_total = sum(int(r.get("events_fired", 0)) for r in results)
    report = {
        "name": name,
        "scenario": spec.scenario,
        "mode": spec.mode,
        "seed_base": spec.seed_base,
        "scale": scale,
        "trials": n,
        "jobs": jobs,
        "wall_time_s": round(wall, 4),
        "trials_per_sec": round(n / wall, 4) if wall > 0 else None,
        "serial_wall_time_s": round(serial_wall, 4) if serial_wall is not None else None,
        "speedup_vs_serial": round(speedup, 3) if speedup is not None else None,
        "parity_ok": parity_ok,
        "events_total": events_total,
        "events_per_sec": round(events_total / wall) if wall > 0 else None,
        "results_digest": _results_digest(results),
        "code_fingerprint": code_fingerprint(),
        "cached_for_reuse": False,
    }

    if use_cache:
        cache = TrialCache(cache_root) if cache_root is not None else TrialCache()
        cache_name = f"{spec.scenario}:{spec.mode}"
        config = {"scenario": spec.scenario, "mode": spec.mode, "scale": scale}
        for i, value in enumerate(results):
            cache.put(cache_name, cache.key(cache_name, config, spec.seed_base + i), value)
        report["cached_for_reuse"] = True
    return report


def write_report(report: dict, out_dir: str | Path) -> Path:
    """Write ``BENCH_<name>.json`` under ``out_dir``; return the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{report['name']}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def load_report(name: str, results_dir: str | Path) -> dict:
    """Load ``BENCH_<name>.json`` from ``results_dir``."""
    path = Path(results_dir) / f"BENCH_{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


#: Hard ceilings on telemetry overhead reports (``BENCH_obs_overhead``),
#: in fractional extra interpreter calls vs the disabled path.  Unlike the
#: drift tolerance below these are absolute: a fresh report at or above a
#: cap fails the gate even if the committed baseline was just as bad.
OVERHEAD_CAPS: dict[str, float] = {
    "null_overhead": 0.02,
    "traced_overhead": 0.05,
}


def compare_reports(
    baseline: dict, fresh: dict, tolerance: float = 0.20
) -> list[str]:
    """Check a fresh report against the committed baseline; return failures.

    Two gated metrics, each allowed to drift ``tolerance`` (a fraction)
    in the *bad* direction only — improvements never fail the gate:

    * ``events_per_sec`` may not drop below ``baseline * (1 - tolerance)``;
    * ``wall_time_s`` may not rise above ``baseline * (1 + tolerance)``,
      compared only when both runs did the same amount of work (same
      ``trials`` and ``jobs``, or a microbench with the same sizing).

    Overhead reports additionally face the absolute :data:`OVERHEAD_CAPS`
    ceilings: those are contract bounds, not drift bounds, so a baseline
    refresh can never ratchet them loose.

    Returns a list of human-readable failure lines (empty = pass).
    """
    failures: list[str] = []
    name = fresh.get("name", "?")

    for key, cap in OVERHEAD_CAPS.items():
        value = fresh.get(key)
        if value is not None and value >= cap:
            failures.append(
                f"{name}: {key} {value:.3%} breaches the hard cap {cap:.0%}"
            )

    base_eps = baseline.get("events_per_sec")
    fresh_eps = fresh.get("events_per_sec")
    if base_eps and fresh_eps is not None:
        floor = base_eps * (1.0 - tolerance)
        if fresh_eps < floor:
            failures.append(
                f"{name}: events/sec regressed {fresh_eps:,.0f} < "
                f"{floor:,.0f} (baseline {base_eps:,.0f} - {tolerance:.0%})"
            )

    same_work = all(
        baseline.get(key) == fresh.get(key)
        for key in (
            "trials",
            "jobs",
            "events",
            "rounds",
            "burst",
            "chains",
            "hops",
            "seed",
            "repeats",
        )
    )
    base_wall = baseline.get("wall_time_s")
    fresh_wall = fresh.get("wall_time_s")
    if same_work and base_wall and fresh_wall is not None:
        ceiling = base_wall * (1.0 + tolerance)
        if fresh_wall > ceiling:
            failures.append(
                f"{name}: wall time regressed {fresh_wall:.3f}s > "
                f"{ceiling:.3f}s (baseline {base_wall:.3f}s + {tolerance:.0%})"
            )
    return failures
