"""Declarative experiment platform: specs, cross products, one runner.

ROADMAP item 4: figure benches were hand-rolled per script — each one
wired its own sweep loops, seeds, caching, and report text.  This module
replaces that with a declarative registry in the style of the mplc
Experiment/Scenario framework: an :class:`ExperimentSpec` *names* a
scenario, its crossed independent variables (workload x strategy x seed x
scale) and the metrics to collect; :func:`run_experiment` fans the full
cross product out through the existing
:class:`~repro.analysis.parallel.ParallelRunner` and
:class:`~repro.analysis.parallel.TrialCache` and returns one JSON-safe
report.  A new scenario or strategy comparison is ~20 lines of spec, not
a new benchmark file.

Determinism contract (the same one ``run_trials`` honours):

* **Cell enumeration** is the itertools product of the variables in
  declaration order — stable across runs, machines, and worker counts.
* **Seed derivation** is per cell, before dispatch.  ``seeds="paired"``
  (default) gives every cell the identical seed sequence
  ``seed_base + i`` — the paper's paired-comparison protocol, and exactly
  what the hand-rolled sweeps did.  ``seeds="derived"`` gives each cell
  its own seed base from a stable digest of ``(seed_base, scenario, cell
  parameters)`` — independent of enumeration order, so adding or
  reordering variables never shifts another cell's seeds.
* **Results** come back in seed order regardless of ``jobs``, so the
  report's ``results_digest`` is bit-identical between serial and
  parallel runs (CI asserts this on the ``smoke`` spec).

Reports carry per-cell samples, summary stats and the results digest.
They carry no timing verdict: speed is judged by the repo benchmark
(``perfbench/``) on paired runs, never against a committed number.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.analysis.env import check_scale, env_scale, parse_count
from repro.analysis.parallel import (
    ParallelRunner,
    TrialCache,
    code_fingerprint,
    resolve_jobs,
)
from repro.analysis.runner import trial_count
from repro.experiments.ablations import (
    backoff_ablation_trial,
    comparator_ablation_trial,
)
from repro.experiments.scenarios import measured_trial

__all__ = [
    "EXPERIMENTS",
    "SCENARIOS",
    "ExperimentSpec",
    "register",
    "register_scenario",
    "get_experiment",
    "enumerate_cells",
    "cell_label",
    "cell_seed_base",
    "run_experiment",
    "run_experiments",
    "samples_by_cell",
    "write_experiment_report",
    "load_experiment_report",
    "spec_cell_trial",
]

# ---------------------------------------------------------------------------
# Scenario registry: name -> trial(seed, scale=..., **cell params) -> dict
# ---------------------------------------------------------------------------

def _measured(scenario: str, seed: int, scale: float = 1.0, mode: str = "unregulated") -> dict:
    """Adapter: a measured contention scenario as a spec scenario."""
    return measured_trial(scenario, mode, seed, scale=scale)


#: Spec-runnable scenarios.  Each value is a callable
#: ``fn(seed, scale=..., **params) -> dict`` of JSON-safe measurements;
#: the cell's variable assignments arrive as keyword arguments.
SCENARIOS: dict[str, Callable[..., dict]] = {
    "defrag_database": partial(_measured, "defrag_database"),
    "defrag_idle": partial(_measured, "defrag_idle"),
    "groveler_setup": partial(_measured, "groveler_setup"),
    "ablation_backoff": backoff_ablation_trial,
    "ablation_comparator": comparator_ablation_trial,
}


def register_scenario(name: str, fn: Callable[..., dict]) -> None:
    """Add a spec-runnable scenario (``fn(seed, scale=..., **params)``).

    Parallel runs resolve the scenario *by name* inside each worker, so
    ``fn`` itself need not be picklable — but it must be registered before
    the workers fork (module import time is the safe place).
    """
    if name in SCENARIOS:
        raise ValueError(f"scenario {name!r} is already registered")
    SCENARIOS[name] = fn


def spec_cell_trial(
    scenario: str,
    params_items: tuple[tuple[str, Any], ...],
    scale: float,
    seed: int,
) -> dict:
    """One trial of one cell — the picklable unit the runner fans out.

    Module-level on purpose: a ``functools.partial`` over this function
    (scenario name + frozen cell parameters + scale) crosses the process
    boundary; the scenario callable is looked up in :data:`SCENARIOS`
    on the worker side.
    """
    try:
        fn = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return fn(seed, scale=scale, **dict(params_items))


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: scenario x crossed variables x metrics.

    ``variables`` maps each independent-variable name to its ordered
    levels; the cross product (in declaration order) defines the cells.
    Values must be JSON-safe scalars — they are passed to the scenario as
    keyword arguments, embedded in cache keys, and written to the report.
    """

    name: str
    #: Key into :data:`SCENARIOS`.
    scenario: str
    #: Independent variables: ``{name: (level, level, ...)}``.
    variables: Mapping[str, tuple]
    #: Metric keys to collect from each trial's result dict.
    metrics: tuple[str, ...]
    #: First seed; trial ``i`` of a cell runs at ``cell seed base + i``.
    seed_base: int = 1000
    #: Pinned trial count (e.g. single-run ablations).  ``None`` defers to
    #: ``REPRO_TRIALS`` and then :attr:`default_trials`.
    trials: int | None = None
    #: Trials when neither an override nor ``REPRO_TRIALS`` is given.
    default_trials: int = 5
    #: Fraction of the resolved trial count this spec actually runs
    #: (e.g. 0.5 for an expensive control arm), floored at
    #: :attr:`min_trials`.
    trials_factor: float = 1.0
    min_trials: int = 1
    #: Pinned workload scale; ``None`` defers to ``REPRO_SCALE`` then 1.0.
    scale: float | None = None
    #: Seed derivation: ``"paired"`` (every cell sees the same seed
    #: sequence) or ``"derived"`` (per-cell digest-derived seed bases).
    seeds: str = "paired"
    #: One-line description for ``repro exp list``.
    summary: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "variables",
            tuple((str(k), tuple(v)) for k, v in dict(self.variables).items()),
        )
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if self.seeds not in ("paired", "derived"):
            raise ValueError(
                f"seeds must be 'paired' or 'derived', got {self.seeds!r}"
            )
        if not self.variables:
            raise ValueError(f"spec {self.name!r} declares no variables")
        for var, levels in self.variables:
            if not levels:
                raise ValueError(
                    f"spec {self.name!r} variable {var!r} has no levels"
                )
        if self.scale is not None:
            check_scale(self.scale, source=f"spec {self.name!r} scale")
        if not (
            math.isfinite(self.trials_factor) and 0.0 < self.trials_factor <= 1.0
        ):
            raise ValueError(
                f"spec {self.name!r} trials_factor must be in (0, 1], "
                f"got {self.trials_factor!r}"
            )

    @property
    def cell_count(self) -> int:
        count = 1
        for _, levels in self.variables:
            count *= len(levels)
        return count

    def resolve_trials(self, trials: int | None = None) -> int:
        """Trials per cell: explicit > pinned > ``REPRO_TRIALS`` > default.

        The resolved count is then scaled by :attr:`trials_factor` and
        floored at :attr:`min_trials` (the Figure 6 control arm runs half
        the trials of its measured arms, exactly as the hand-rolled bench
        did).
        """
        if trials is not None:
            n = parse_count(trials, "trials")
        elif self.trials is not None:
            n = self.trials
        else:
            n = trial_count(default=self.default_trials)
        if self.trials_factor != 1.0:
            n = max(self.min_trials, int(n * self.trials_factor))
        return max(self.min_trials, n)

    def resolve_scale(self, scale: float | None = None) -> float:
        """Workload scale: explicit > pinned > ``REPRO_SCALE`` > 1.0."""
        if scale is not None:
            return check_scale(scale)
        if self.scale is not None:
            return self.scale
        return env_scale()


#: The registered experiments ``repro exp`` can list and run.
EXPERIMENTS: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec`` under its name; duplicate names are an error."""
    if spec.name in EXPERIMENTS:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    if spec.scenario not in SCENARIOS:
        raise ValueError(
            f"experiment {spec.name!r} names unknown scenario "
            f"{spec.scenario!r}; choose from {sorted(SCENARIOS)}"
        )
    EXPERIMENTS[spec.name] = spec
    return spec


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered spec by name."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None


# ---------------------------------------------------------------------------
# Cells and seeds
# ---------------------------------------------------------------------------

def enumerate_cells(spec: ExperimentSpec) -> list[dict]:
    """The spec's cells: cross product in variable declaration order.

    The last-declared variable varies fastest (itertools.product order),
    and the enumeration is a pure function of the spec — no environment,
    no randomness — so reports enumerate identically everywhere.
    """
    cells: list[dict] = [{}]
    for var, levels in spec.variables:
        cells = [{**cell, var: level} for cell in cells for level in levels]
    return cells


def cell_label(params: Mapping[str, Any]) -> str:
    """Canonical human/cache label for a cell: ``k=v`` in sorted key order."""
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def cell_seed_base(spec: ExperimentSpec, params: Mapping[str, Any]) -> int:
    """The first seed for a cell's trial sequence.

    ``paired`` returns ``spec.seed_base`` for every cell — all cells see
    the identical seed sequence.  ``derived`` digests ``(seed_base,
    scenario, sorted cell parameters)`` into a 31-bit seed base: a stable
    function of the cell's *own* coordinates only, so the seeds of a cell
    never depend on what other cells exist or in what order they
    enumerate.
    """
    if spec.seeds == "paired":
        return spec.seed_base
    material = json.dumps(
        {
            "seed_base": spec.seed_base,
            "scenario": spec.scenario,
            "params": {str(k): params[k] for k in sorted(params)},
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _cell_cache_name(spec: ExperimentSpec, params: Mapping[str, Any]) -> str:
    """Trial-cache namespace for one cell.

    Single-variable ``mode`` cells use the historical
    ``<scenario>:<mode>`` namespace so spec runs share cache entries with
    the hand-rolled sweeps they replaced; everything else gets the
    canonical label form.
    """
    if set(params) == {"mode"}:
        return f"{spec.scenario}:{params['mode']}"
    return f"{spec.scenario}:{cell_label(params)}"


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def _stats(samples: Iterable[Any]) -> dict | None:
    """JSON-safe summary of a metric's numeric samples (None-tolerant)."""
    values = [
        float(v)
        for v in samples
        if isinstance(v, (int, float)) and not isinstance(v, bool)
        and math.isfinite(float(v))
    ]
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    return {
        "n": n,
        "mean": sum(ordered) / n,
        "median": median,
        "min": ordered[0],
        "max": ordered[-1],
    }


def _results_digest(cells: list[dict]) -> str:
    """Order-sensitive digest over cell parameters + samples."""
    material = json.dumps(
        [{"params": c["params"], "samples": c["samples"]} for c in cells],
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def run_experiment(
    spec: ExperimentSpec,
    trials: int | None = None,
    jobs: int | None = None,
    scale: float | None = None,
    cache: TrialCache | None = None,
    runner: ParallelRunner | None = None,
) -> dict:
    """Run every cell of ``spec``; return the JSON-safe report.

    Each cell fans its trials out through one shared
    :class:`~repro.analysis.parallel.ParallelRunner` (the passed
    ``runner``, or a fresh one honouring ``jobs``/``REPRO_JOBS``,
    defaulting to serial).  With a cache, completed (cell, seed,
    code-version) trials are loaded instead of re-run; the report counts
    ``trials_executed`` vs ``trials_cached`` so a fully warm second run
    is visibly zero-execution.
    """
    n = spec.resolve_trials(trials)
    resolved_scale = spec.resolve_scale(scale)
    cells = enumerate_cells(spec)

    own_runner = runner is None
    if own_runner:
        runner = ParallelRunner(jobs=resolve_jobs(jobs, default=1), cache=cache)
    active_cache = runner.cache
    hits_before = active_cache.hits if active_cache is not None else 0

    cell_reports: list[dict] = []
    events_total = 0
    start = time.perf_counter()
    try:
        for params in cells:
            seed_base = cell_seed_base(spec, params)
            trial = partial(
                spec_cell_trial,
                spec.scenario,
                tuple(sorted(params.items())),
                resolved_scale,
            )
            results = runner.run(
                trial,
                trials=n,
                seed_base=seed_base,
                cache_name=_cell_cache_name(spec, params),
                cache_config={
                    "scenario": spec.scenario,
                    **{str(k): params[k] for k in sorted(params)},
                    "scale": resolved_scale,
                },
            )
            samples = {
                metric: [r.get(metric) for r in results]
                for metric in spec.metrics
            }
            events_total += sum(int(r.get("events_fired", 0)) for r in results)
            cell_reports.append(
                {
                    "params": dict(params),
                    "label": cell_label(params),
                    "seed_base": seed_base,
                    "trials": n,
                    "samples": samples,
                    "stats": {
                        metric: _stats(values)
                        for metric, values in samples.items()
                    },
                }
            )
    finally:
        if own_runner:
            runner.close()
    wall = time.perf_counter() - start

    total_trials = n * len(cells)
    cached = (
        (active_cache.hits - hits_before) if active_cache is not None else 0
    )
    return {
        "kind": "experiment",
        "name": spec.name,
        "scenario": spec.scenario,
        "variables": {var: list(levels) for var, levels in spec.variables},
        "metrics": list(spec.metrics),
        "seed_base": spec.seed_base,
        "seeds": spec.seeds,
        "trials": n,
        "scale": resolved_scale,
        "jobs": runner.jobs,
        "cells": cell_reports,
        "cell_count": len(cells),
        "trials_total": total_trials,
        "trials_cached": cached,
        "trials_executed": total_trials - cached,
        "wall_time_s": round(wall, 4),
        "events_total": events_total,
        "results_digest": _results_digest(cell_reports),
        "code_fingerprint": code_fingerprint(),
    }


def run_experiments(
    specs: Iterable[ExperimentSpec],
    trials: int | None = None,
    jobs: int | None = None,
    scale: float | None = None,
    cache: TrialCache | None = None,
) -> list[dict]:
    """Run several specs through one shared runner (one warm worker pool)."""
    specs = list(specs)
    with ParallelRunner(jobs=resolve_jobs(jobs, default=1), cache=cache) as runner:
        return [
            run_experiment(spec, trials=trials, scale=scale, runner=runner)
            for spec in specs
        ]


def samples_by_cell(report: dict, metric: str) -> dict[str, list]:
    """``{cell key: samples}`` for one metric, preserving cell order.

    Single-variable specs key by the bare level value (``"MS Manners"``);
    multi-variable specs key by the canonical ``k=v,...`` label.
    """
    single = len(report["variables"]) == 1
    out: dict[str, list] = {}
    for cell in report["cells"]:
        if single:
            (value,) = cell["params"].values()
            key = str(value)
        else:
            key = cell["label"]
        out[key] = cell["samples"][metric]
    return out


# ---------------------------------------------------------------------------
# Report artifact
# ---------------------------------------------------------------------------

def write_experiment_report(payload: dict, out_dir: str | Path) -> Path:
    """Write the report artifact under ``out_dir``; return the path.

    A single experiment writes ``EXP_<name>.json``; a combined payload
    (``{"kind": "experiment-report", "experiments": [...]}``) writes
    ``EXP_report.json``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if payload.get("kind") == "experiment":
        path = out / f"EXP_{payload['name']}.json"
    else:
        path = out / "EXP_report.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


#: Keys of a :func:`run_experiment` report that ``repro exp report`` reads.
_REPORT_KEYS = frozenset({
    "name", "scenario", "metrics", "seed_base", "seeds", "trials", "scale",
    "jobs", "cells", "cell_count", "trials_cached", "trials_executed",
    "wall_time_s", "results_digest",
})


def _check_experiment(report: Any) -> None:
    """Raise ``ValueError`` unless ``report`` is one experiment's report."""
    if not isinstance(report, dict):
        raise ValueError(f"expected a JSON object, got {type(report).__name__}")
    if report.get("kind") != "experiment":
        raise ValueError(f"kind is {report.get('kind')!r}, not 'experiment'")
    missing = _REPORT_KEYS - report.keys()
    if missing:
        raise ValueError(f"missing {', '.join(sorted(missing))}")
    cells = report["cells"]
    if not isinstance(cells, list) or not all(
        isinstance(cell, dict) and {"label", "stats"} <= cell.keys()
        for cell in cells
    ):
        raise ValueError("cells is not a list of cell reports")


def load_experiment_report(path: str | Path) -> dict:
    """Load a report artifact written by :func:`write_experiment_report`.

    Raises ``ValueError`` when the file is not one: invalid JSON
    (``json.JSONDecodeError``), or JSON of another shape.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(payload, dict) and payload.get("kind") == "experiment-report":
        experiments = payload.get("experiments")
        if not isinstance(experiments, list) or not experiments:
            raise ValueError("experiments is not a non-empty list")
        for report in experiments:
            _check_experiment(report)
    else:
        _check_experiment(payload)
    return payload


# ---------------------------------------------------------------------------
# The registered experiments: the paper's figure benches + the ablations
# ---------------------------------------------------------------------------

_CONTENTION_MODES = (
    "unregulated",
    "CPU priority",
    "MS Manners",
    "BeNice",
)

register(ExperimentSpec(
    name="fig3_database",
    scenario="defrag_database",
    variables={"mode": ("not running",) + _CONTENTION_MODES},
    metrics=("hi_time", "li_time", "events_fired"),
    seed_base=1000,
    summary="Figure 3: database run time under five defragmenter regimes",
))

register(ExperimentSpec(
    name="fig4_setup",
    scenario="groveler_setup",
    variables={"mode": (
        "not running", "unregulated", "CPU priority", "MS Manners",
    )},
    metrics=("hi_time", "li_time", "events_fired"),
    seed_base=2000,
    summary="Figure 4: Office-style Setup time under four Groveler regimes",
))

register(ExperimentSpec(
    name="fig5_idle",
    scenario="defrag_idle",
    variables={"mode": _CONTENTION_MODES},
    metrics=("li_time", "events_fired"),
    seed_base=3000,
    summary="Figure 5: defragment time on an otherwise-idle system",
))

register(ExperimentSpec(
    name="fig6_contended",
    scenario="defrag_database",
    variables={"mode": _CONTENTION_MODES},
    metrics=("li_time", "events_fired"),
    seed_base=4000,
    summary="Figure 6: defragment time with the database workload",
))

register(ExperimentSpec(
    name="fig6_defrag_alone",
    scenario="defrag_idle",
    variables={"mode": ("unregulated",)},
    metrics=("li_time", "events_fired"),
    seed_base=4000,
    summary="Figure 6 control: defragmenter alone (sharing arithmetic)",
))

register(ExperimentSpec(
    name="fig6_database_alone",
    scenario="defrag_database",
    variables={"mode": ("not running",)},
    metrics=("hi_time", "events_fired"),
    seed_base=4000,
    trials_factor=0.5,
    min_trials=2,
    summary="Figure 6 control: database alone at half the trial budget",
))

register(ExperimentSpec(
    name="ablation_backoff",
    scenario="ablation_backoff",
    variables={"backoff": ("exponential", "constant")},
    metrics=("hi_time", "li_done", "probes_during_hi", "overshoot"),
    seed_base=9,
    trials=1,
    summary="Ablation 4.1: exponential suspension backoff vs constant",
))

register(ExperimentSpec(
    name="ablation_comparator",
    scenario="ablation_comparator",
    variables={"comparator": ("statistical", "direct")},
    metrics=(
        "finish_time",
        "poor_judgments",
        "judged",
        "total_suspension",
        "finished",
    ),
    seed_base=5,
    trials=1,
    summary="Ablation 4.2: statistical sign test vs direct judging",
))

register(ExperimentSpec(
    name="smoke",
    scenario="defrag_idle",
    variables={"mode": ("unregulated", "MS Manners")},
    metrics=("li_time", "events_fired"),
    seed_base=3000,
    default_trials=3,
    scale=0.05,
    summary="CI smoke: two-mode idle sweep at scale 0.05 (digest parity)",
))
