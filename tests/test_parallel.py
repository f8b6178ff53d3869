"""Parallel trial execution: determinism, caching, counter merging."""

from __future__ import annotations

import json
from functools import partial

import pytest

from repro.analysis.parallel import (
    ParallelRunner,
    TrialCache,
    TrialEnvelope,
    code_fingerprint,
    config_fingerprint,
    resolve_jobs,
)
from repro.analysis.runner import run_trials
from repro.experiments.scenarios import MEASURED_SCENARIOS, measured_trial
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry

#: Tiny geometry so a full parity matrix stays in test-suite time.
SCALE = 0.01


def _double(seed):
    """Module-level (picklable) trial: deterministic pure function."""
    return {"seed": seed, "value": seed * 2}


def _counting_trial(seed, telemetry=None):
    """Picklable trial that reports per-trial counters via telemetry."""
    telemetry.metrics.counter("trials.run").inc()
    telemetry.metrics.counter("trials.seedsum").inc(float(seed))
    return seed * 2


class TestResolveJobs:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None, default=1) == 5

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None, default=2) == 2

    def test_default_none_means_all_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None, default=None) >= 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_explicit(self, bad):
        with pytest.raises(ValueError):
            resolve_jobs(bad)

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            resolve_jobs(None)


class TestFingerprints:
    def test_code_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_config_fingerprint_distinguishes(self):
        a = config_fingerprint({"scenario": "x", "scale": 1.0})
        b = config_fingerprint({"scenario": "x", "scale": 0.5})
        assert a != b

    def test_config_fingerprint_key_order_insensitive(self):
        a = config_fingerprint({"a": 1, "b": 2})
        b = config_fingerprint({"b": 2, "a": 1})
        assert a == b


class TestSerialParallelParity:
    """jobs=N must return exactly what jobs=1 returns (acceptance criterion)."""

    @pytest.mark.parametrize("scenario", sorted(MEASURED_SCENARIOS))
    @pytest.mark.parametrize("seed_base", [1000, 2000, 7321])
    def test_scenario_parity(self, scenario, seed_base):
        trial = partial(measured_trial, scenario, "MS Manners", scale=SCALE)
        serial = ParallelRunner(jobs=1).run(trial, trials=3, seed_base=seed_base)
        fanned = ParallelRunner(jobs=4).run(trial, trials=3, seed_base=seed_base)
        assert fanned == serial

    def test_results_ordered_by_seed(self):
        out = ParallelRunner(jobs=4).run(_double, trials=8, seed_base=100)
        assert [r["seed"] for r in out] == list(range(100, 108))

    def test_run_trials_jobs_kwarg(self):
        serial = run_trials(_double, trials=5, seed_base=50, jobs=1)
        fanned = run_trials(_double, trials=5, seed_base=50, jobs=4)
        assert fanned == serial

    def test_serial_path_accepts_lambdas(self):
        # The historical jobs=1 path must keep working for closures.
        out = run_trials(lambda seed: seed + 1, trials=3, seed_base=0, jobs=1)
        assert out == [1, 2, 3]

    def test_invalid_trial_count(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=1).run(_double, trials=0)


class TestTrialCache:
    def test_second_run_hits_and_matches(self, tmp_path):
        cache = TrialCache(tmp_path)
        config = {"scenario": "t", "scale": SCALE}
        first = ParallelRunner(jobs=1, cache=cache).run(
            _double, trials=4, seed_base=10, cache_name="t", cache_config=config
        )
        assert cache.hits == 0 and cache.misses == 4
        again = ParallelRunner(jobs=1, cache=cache).run(
            _double, trials=4, seed_base=10, cache_name="t", cache_config=config
        )
        assert again == first
        assert cache.hits == 4

    def test_real_scenario_cache_round_trip(self, tmp_path):
        cache = TrialCache(tmp_path)
        trial = partial(measured_trial, "defrag_idle", "unregulated", scale=SCALE)
        config = {"scenario": "defrag_idle", "mode": "unregulated", "scale": SCALE}
        fresh = ParallelRunner(jobs=1, cache=cache).run(
            trial, trials=2, seed_base=3000, cache_name="defrag_idle", cache_config=config
        )
        cached = ParallelRunner(jobs=1, cache=cache).run(
            trial, trials=2, seed_base=3000, cache_name="defrag_idle", cache_config=config
        )
        assert cached == fresh  # JSON round trip is exact
        assert cache.hits == 2

    def test_config_change_misses(self, tmp_path):
        cache = TrialCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).run(
            _double, trials=2, seed_base=0, cache_name="t", cache_config={"scale": 1.0}
        )
        ParallelRunner(jobs=1, cache=cache).run(
            _double, trials=2, seed_base=0, cache_name="t", cache_config={"scale": 0.5}
        )
        assert cache.hits == 0

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = TrialCache(tmp_path, enabled=False)
        ParallelRunner(jobs=1, cache=cache).run(
            _double, trials=2, seed_base=0, cache_name="t", cache_config=None
        )
        assert not any(tmp_path.rglob("*.json"))

    def test_non_json_result_raises(self, tmp_path):
        cache = TrialCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put("t", "k", {"bad": object()})

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        key = cache.key("t", None, 0)
        cache.put("t", key, 1)
        path = tmp_path / "t" / f"{key}.json"
        path.write_text("not json", encoding="utf-8")
        hit, _ = cache.get("t", key)
        assert not hit

    def test_entries_record_key_material(self, tmp_path):
        cache = TrialCache(tmp_path)
        key = cache.key("t", {"a": 1}, 7)
        cache.put("t", key, [1, 2])
        [path] = (tmp_path / "t").glob("*.json")
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert entry == {"name": "t", "key": key, "value": [1, 2]}


class TestTelemetryMerge:
    def test_counters_merge_additively(self):
        telemetry = Telemetry(metrics=MetricsRegistry())
        out = ParallelRunner(jobs=1).run(
            _counting_trial, trials=5, seed_base=10, telemetry=telemetry
        )
        assert out == [20, 22, 24, 26, 28]
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["trials.run"] == 5
        assert counters["trials.seedsum"] == sum(range(10, 15))

    def test_parallel_merge_matches_serial(self):
        serial = Telemetry(metrics=MetricsRegistry())
        fanned = Telemetry(metrics=MetricsRegistry())
        a = ParallelRunner(jobs=1).run(
            _counting_trial, trials=6, seed_base=0, telemetry=serial
        )
        b = ParallelRunner(jobs=4).run(
            _counting_trial, trials=6, seed_base=0, telemetry=fanned
        )
        assert a == b
        assert (
            serial.metrics.snapshot()["counters"]
            == fanned.metrics.snapshot()["counters"]
        )

    def test_cached_trials_contribute_no_counters(self, tmp_path):
        cache = TrialCache(tmp_path)
        warm = Telemetry(metrics=MetricsRegistry())
        ParallelRunner(jobs=1, cache=cache).run(
            _counting_trial, trials=3, seed_base=0, telemetry=warm,
            cache_name="t", cache_config=None,
        )
        cold = Telemetry(metrics=MetricsRegistry())
        ParallelRunner(jobs=1, cache=cache).run(
            _counting_trial, trials=3, seed_base=0, telemetry=cold,
            cache_name="t", cache_config=None,
        )
        assert "trials.run" not in cold.metrics.snapshot()["counters"]


class TestEnvelope:
    def test_envelope_defaults(self):
        env = TrialEnvelope(index=0, seed=5, value=1)
        assert env.counters == {}
