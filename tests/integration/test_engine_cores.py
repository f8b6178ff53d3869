"""The paper scenarios' simulated outputs, pinned.

The recorded outputs below are the exact ``measured_trial`` results of the
model as committed, so a kernel, device or engine change that reorders
events fails here.  An intentional model change re-records them.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import measured_trial

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


@pytest.mark.parametrize("key", sorted(RECORDED), ids=lambda key: "-".join(map(str, key)))
def test_paper_scenarios_match_recorded_outputs(key):
    scenario, mode, seed = key
    assert measured_trial(scenario, mode, seed, scale=0.05) == RECORDED[key], (
        "the simulated outputs changed; if the model change is intentional, "
        "re-record RECORDED from measured_trial at the new commit"
    )
