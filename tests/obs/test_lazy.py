"""The event accessor of the instrumented modules (``repro.obs.lazy``).

The regulator, the simulator's MS Manners and BeNice reach event classes
as attributes of the accessor, which imports ``repro.obs.events`` when the
first event is built.  These tests pin that it hands out the very classes
of the events module, and that a traced trial started in a fresh
interpreter, where every class is first reached mid-run, emits the event
stream recorded when those modules imported ``repro.obs.events`` at load
time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs import events, lazy

SRC = Path(repro.__file__).resolve().parents[1]

#: ``[event count, sha256 of the JSON event stream]`` of a traced
#: ``defrag_database_trial`` (seed 1, scale 0.2) per mode, recorded before
#: the instrumented modules reached events through the accessor.
RECORDED_STREAMS = {
    "MS Manners": [2945, "71d6eabb34fba54238af2f8bf98231c46b256a19a7bcee24c78c1be85f55b7b5"],
    "BeNice": [2627, "18ff618e8fb15c57e4d731563cd2a111fdf73fb3c228bebc0caef7a39c4ade2d"],
}

TRACED_TRIAL = """
import hashlib, json, sys
from repro.apps.base import RegulationMode
from repro.experiments.scenarios import defrag_database_trial
assert "repro.obs.events" not in sys.modules
from repro.obs import MemorySink, MetricsRegistry, Telemetry, Tracer
from repro.obs.events import event_to_dict
streams = {}
for mode in (RegulationMode.MS_MANNERS, RegulationMode.BENICE):
    sink = MemorySink()
    telemetry = Telemetry(sink=sink, metrics=MetricsRegistry(), tracer=Tracer())
    defrag_database_trial(mode, seed=1, scale=0.2, telemetry=telemetry)
    rows = [event_to_dict(event) for event in sink.events]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    streams[mode.value] = [len(rows), hashlib.sha256(text.encode()).hexdigest()]
print(json.dumps(streams))
"""


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with only ``src`` on the path."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_accessor_hands_out_the_classes_of_events():
    names = [name for name in events.__all__ if isinstance(getattr(events, name), type)]
    assert len(names) >= 19
    for name in names:
        assert getattr(lazy, name) is getattr(events, name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        lazy.NoSuchEvent
    assert not hasattr(lazy, "__wrapped__")


def test_events_load_on_first_use():
    result = _fresh(
        "import sys\n"
        "from repro.obs import lazy\n"
        "assert 'repro.obs.events' not in sys.modules\n"
        "span = lazy.Span\n"
        "from repro.obs import events\n"
        "assert span is events.Span and vars(lazy)['Span'] is span\n"
    )
    assert result.returncode == 0, result.stderr


def test_traced_trial_in_fresh_interpreter_emits_recorded_stream():
    result = _fresh(TRACED_TRIAL)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == RECORDED_STREAMS
