"""One simulation on either event core; the binary heap is the default."""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import measured_trial
from repro.realtime.deadlines import DeadlineQueue
from repro.simos.engine import Engine
from repro.simos.kernel import Kernel


def test_heap_is_the_default_core(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert type(Kernel().engine) is Engine
    assert type(DeadlineQueue().engine) is Engine


@pytest.mark.parametrize("scenario,mode", [
    ("defrag_idle", "unregulated"),
    ("defrag_database", "MS Manners"),
    ("defrag_database", "BeNice"),
    ("groveler_setup", "MS Manners"),
])
@pytest.mark.parametrize("seed", [1, 2])
def test_paper_scenarios_identical_on_both_cores(monkeypatch, scenario, mode, seed):
    results = {}
    for core in ("heap", "wheel"):
        monkeypatch.setenv("REPRO_ENGINE", core)
        results[core] = measured_trial(scenario, mode, seed, scale=0.05)
    assert results["heap"] == results["wheel"]
    assert results["heap"]["events_fired"] > 0
