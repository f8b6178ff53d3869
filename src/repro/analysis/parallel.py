"""Parallel trial execution: process fan-out, result envelopes, trial cache.

The paper's contention experiments repeat every configuration 50 times
(section 9.2), and the ROADMAP's production target is sweeps over large
configuration grids.  Driving each ``trial(seed)`` serially in one process
binds a paper-scale run to a single core; this module supplies the missing
execution layer:

* :class:`ParallelRunner` fans trials out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Seeds are assigned
  deterministically (``seed_base + index``) *before* dispatch and results
  are reassembled in index order, so a parallel run returns exactly the
  list a serial run would — bit-identical aggregates, regardless of worker
  count or completion order.  ``jobs=1`` (or ``REPRO_JOBS=1``) is an exact
  serial fallback that never touches the pool machinery.
* :class:`TrialEnvelope` is the picklable unit shipped back from a worker:
  the trial's return value plus the worker-local ``repro.obs`` counter
  snapshot.  The parent merges counters into the caller's
  :class:`~repro.obs.metrics.MetricsRegistry`, so telemetry totals stay
  correct across process boundaries (counters are additive; gauges and
  histograms are per-worker and intentionally not merged).
* :class:`TrialCache` keys a finished trial on
  ``(benchmark name, scenario-config fingerprint, seed, code fingerprint)``
  and stores the JSON-serializable result under
  ``benchmarks/results/cache/``.  Re-running an unchanged sweep skips
  completed trials; editing any source file under ``repro`` invalidates
  every entry at once (coarse, but never stale).

Trial functions handed to a parallel run must be picklable: module-level
functions or :func:`functools.partial` over them.  Lambdas and closures
still work on the ``jobs=1`` path.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.analysis.env import env_int, parse_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = [
    "ParallelRunner",
    "TrialCache",
    "TrialEnvelope",
    "resolve_jobs",
    "code_fingerprint",
    "config_fingerprint",
    "DEFAULT_CACHE_DIR",
]

#: Default cache root, relative to the current working directory (the repo
#: checkout for benchmark runs); see :class:`TrialCache`.
DEFAULT_CACHE_DIR = Path("benchmarks") / "results" / "cache"

#: In-flight futures per worker: enough to keep every worker busy without
#: materializing one future per trial for very large sweeps.
_DISPATCH_DEPTH = 4


def resolve_jobs(jobs: int | None = None, default: int | None = None) -> int:
    """Worker count: explicit ``jobs``, else ``REPRO_JOBS``, else ``default``.

    ``default=None`` means "all cores" (``os.cpu_count()``).  The resolved
    count must be >= 1; a zero/negative/non-integer request raises
    :class:`ValueError` naming the source (``jobs`` for the explicit
    argument, ``REPRO_JOBS`` for the environment) and the offending value.
    An empty/whitespace ``REPRO_JOBS`` counts as unset.
    """
    if jobs is not None:
        return parse_count(jobs, "jobs")
    resolved = env_int("REPRO_JOBS", default=None)
    if resolved is None:
        resolved = default if default is not None else (os.cpu_count() or 1)
    return resolved


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hex digest over every source file of the installed ``repro`` package.

    Cache entries embed this fingerprint, so *any* source change invalidates
    the whole trial cache.  Hashing ~170 small files costs a few
    milliseconds, once per process.
    """
    import repro

    digest = hashlib.sha256()
    root = Path(repro.__file__).resolve().parent
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _describe(obj: Any) -> Any:
    """JSON-encodable stand-in for arbitrary config values (stable order)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if callable(obj):
        return f"{getattr(obj, '__module__', '?')}.{getattr(obj, '__qualname__', repr(obj))}"
    return repr(obj)


def config_fingerprint(config: Any) -> str:
    """Short stable digest of a scenario configuration.

    Accepts anything: dataclasses (e.g. ``MannersConfig``), dicts, enums,
    callables, or plain values.  Two configs fingerprint equal exactly when
    their canonical JSON descriptions match.
    """
    text = json.dumps(config, sort_keys=True, default=_describe)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class TrialEnvelope:
    """Picklable per-trial result shipped from a worker to the parent."""

    #: Position in the seed sequence (results are reassembled by index).
    index: int
    #: The seed this trial ran with (``seed_base + index``).
    seed: int
    #: The trial function's return value.
    value: Any
    #: Worker-local ``repro.obs`` counter totals for this trial (empty when
    #: the run is not telemetry-instrumented).
    counters: dict[str, float] = dataclasses.field(default_factory=dict)


def _execute_trial(
    trial: Callable[..., Any], index: int, seed: int, with_telemetry: bool
) -> TrialEnvelope:
    """Run one trial (in a worker or inline) and wrap it in an envelope.

    With telemetry, the trial is called as ``trial(seed, telemetry=...)``
    with a fresh worker-local handle whose counters are snapshotted into
    the envelope for additive merging in the parent.
    """
    if not with_telemetry:
        return TrialEnvelope(index=index, seed=seed, value=trial(seed))
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry(metrics=MetricsRegistry())
    value = trial(seed, telemetry=telemetry)
    counters = telemetry.metrics.snapshot()["counters"]
    return TrialEnvelope(index=index, seed=seed, value=value, counters=counters)


class TrialCache:
    """Content-keyed store of finished trial results.

    One JSON file per (benchmark, config, seed, code-version) tuple under
    ``root``.  Values must be JSON-serializable and JSON-round-trip-exact
    (numbers, strings, booleans, ``None``, and dicts/lists thereof) so a
    cache hit returns *the same* result the trial produced; a
    non-serializable value raises :class:`ValueError` at store time rather
    than silently corrupting sweeps.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR, enabled: bool = True) -> None:
        self.root = Path(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    def key(self, name: str, config: Any, seed: int) -> str:
        """Cache key for one trial of ``name`` at ``seed`` under ``config``."""
        material = "\n".join(
            (name, config_fingerprint(config), str(seed), code_fingerprint())
        )
        return hashlib.sha256(material.encode()).hexdigest()[:32]

    def _path(self, name: str, key: str) -> Path:
        return self.root / name / f"{key}.json"

    def get(self, name: str, key: str) -> tuple[bool, Any]:
        """``(hit, value)`` for ``key``; unreadable entries count as misses."""
        if not self.enabled:
            return False, None
        path = self._path(name, key)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, entry["value"]

    def put(self, name: str, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic write via rename)."""
        if not self.enabled:
            return
        try:
            text = json.dumps({"name": name, "key": key, "value": value})
        except TypeError as exc:
            raise ValueError(
                f"trial result for {name!r} is not JSON-serializable and "
                f"cannot be cached: {exc}"
            ) from exc
        path = self._path(name, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text + "\n", encoding="utf-8")
        os.replace(tmp, path)


class ParallelRunner:
    """Deterministic fan-out of ``trial(seed)`` calls over worker processes.

    ``jobs`` resolves as explicit argument > ``REPRO_JOBS`` > all cores.
    ``jobs=1`` runs every trial inline, in seed order, with no executor —
    the exact serial semantics of a plain loop.  Parallel runs assign the
    same seeds to the same indices and sort results by index, so the two
    modes return identical lists for deterministic trials.
    """

    def __init__(self, jobs: int | None = None, cache: TrialCache | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        #: Lazily created, *persistent* worker pool.  Spawning a process
        #: pool costs tens of milliseconds plus a worker warm-up per
        #: worker; a sweep that calls :meth:`run` once per sweep point
        #: (mode, configuration, ...) reuses one pool across all of them.
        #: Seed assignment and result ordering are per-:meth:`run` and do
        #: not depend on pool identity, so reuse cannot change results.
        self._pool: ProcessPoolExecutor | None = None

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        trial: Callable[..., Any],
        trials: int,
        seed_base: int = 1000,
        telemetry: "Telemetry | None" = None,
        cache_name: str | None = None,
        cache_config: Any = None,
    ) -> list[Any]:
        """Run ``trials`` seeds of ``trial``; return results in seed order.

        With ``telemetry``, the trial is invoked as
        ``trial(seed, telemetry=...)`` against a per-trial registry and the
        counter totals are merged (summed) into ``telemetry.metrics``.
        With a cache and a ``cache_name``, completed seeds are loaded
        instead of re-run and fresh results are stored back; cached seeds
        contribute no counters (they did not execute).
        """
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        indices = range(trials)
        results: list[Any] = [None] * trials

        pending: list[tuple[int, int]] = []  # (index, seed) still to execute
        keys: dict[int, str] = {}
        use_cache = self.cache is not None and cache_name is not None
        for i in indices:
            seed = seed_base + i
            if use_cache:
                key = self.cache.key(cache_name, cache_config, seed)
                keys[i] = key
                hit, value = self.cache.get(cache_name, key)
                if hit:
                    results[i] = value
                    continue
            pending.append((i, seed))

        with_telemetry = telemetry is not None
        for envelope in self._execute(pending, trial, with_telemetry):
            results[envelope.index] = envelope.value
            if with_telemetry:
                for name, total in envelope.counters.items():
                    telemetry.metrics.counter(name).inc(total)
            if use_cache:
                self.cache.put(cache_name, keys[envelope.index], envelope.value)
        return results

    def _execute(
        self,
        pending: list[tuple[int, int]],
        trial: Callable[..., Any],
        with_telemetry: bool,
    ):
        """Yield envelopes for every pending (index, seed), any order."""
        if not pending:
            return
        if self.jobs == 1 or len(pending) == 1:
            for index, seed in pending:
                yield _execute_trial(trial, index, seed, with_telemetry)
            return
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        pool = self._pool
        workers = min(self.jobs, len(pending))
        queue = iter(pending)
        futures = set()

        def submit_next() -> None:
            item = next(queue, None)
            if item is not None:
                futures.add(
                    pool.submit(_execute_trial, trial, item[0], item[1], with_telemetry)
                )

        for _ in range(workers * _DISPATCH_DEPTH):
            submit_next()
        while futures:
            done, futures = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                yield future.result()
                submit_next()
