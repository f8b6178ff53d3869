"""One simulation on either event core; the binary heap is the default.

Both cores share the kernel and device code, so agreeing with each other
cannot catch a device change that reorders events.  The recorded outputs
below can: they are the exact ``measured_trial`` results of the model as
committed.  An intentional model change re-records them.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import measured_trial
from repro.realtime.deadlines import DeadlineQueue
from repro.simos.engine import Engine
from repro.simos.kernel import Kernel

#: ``measured_trial(scenario, mode, seed, scale=0.05)``, recorded exactly.
RECORDED = {
    ("defrag_idle", "unregulated", 1): {
        "hi_time": None, "li_time": 11.35909522659961, "events_fired": 3957, "move_ops": 160},
    ("defrag_idle", "unregulated", 2): {
        "hi_time": None, "li_time": 11.443639538449121, "events_fired": 4065, "move_ops": 160},
    ("defrag_database", "MS Manners", 1): {
        "hi_time": 13.496461066000698, "li_time": 11.35909522659961, "events_fired": 6919,
        "move_ops": 160},
    ("defrag_database", "MS Manners", 2): {
        "hi_time": 13.480852547281124, "li_time": 11.443639538449121, "events_fired": 7027,
        "move_ops": 160},
    ("defrag_database", "BeNice", 1): {
        "hi_time": 13.496461066000698, "li_time": 11.486268972596656, "events_fired": 7092,
        "move_ops": 160},
    ("defrag_database", "BeNice", 2): {
        "hi_time": 13.480852547281124, "li_time": 11.588987528981095, "events_fired": 7202,
        "move_ops": 160},
    ("groveler_setup", "MS Manners", 1): {
        "hi_time": 14.32819853816354, "li_time": 6.221285559376357, "events_fired": 2634},
    ("groveler_setup", "MS Manners", 2): {
        "hi_time": 15.514001930201545, "li_time": 6.102833180137821, "events_fired": 2743},
}


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


@pytest.mark.parametrize("key", sorted(RECORDED), ids=lambda key: "-".join(map(str, key)))
def test_paper_scenarios_match_recorded_outputs(monkeypatch, key):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    scenario, mode, seed = key
    assert measured_trial(scenario, mode, seed, scale=0.05) == RECORDED[key], (
        "the simulated outputs changed; if the model change is intentional, "
        "re-record RECORDED from measured_trial at the new commit"
    )
