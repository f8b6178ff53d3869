"""A pinned decision stream through every branch of the testpoint path.

Two regulated threads of one process run a seeded stream of work steps
through :class:`Supervisor` on a virtual clock, as a substrate would.  A
script bends the stream so that it reaches every branch of
``ThreadRegulator.on_testpoint`` that the pinned scenario outputs never
reach: the lightweight gate, an off-protocol call, a hung gap, a backward
clock, a zero-elapsed interval, a rate spike, a watchdog discard and a
metric set first seen mid-run.  Contention episodes add POOR judgments and
suspensions on top.

The digest covers every decision's fields and each regulator's final
state, floats by their exact ``repr``.  It was recorded before the
testpoint path was last optimized, so a speed-only change to the path
must leave it unchanged; a change meant to alter decisions re-records it
and says why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

from repro.core.config import MannersConfig
from repro.core import controller
from repro.core.superintendent import Superintendent
from repro.core.supervisor import Supervisor

#: Thread "a" runs gated, so a call right after its release is lightweight.
CONFIG = MannersConfig(
    bootstrap_testpoints=6,
    probation_period=20.0,
    min_testpoint_interval=0.05,
    hung_threshold=30.0,
    watchdog_multiplier=4.0,
    initial_suspension=0.5,
    max_suspension=8.0,
    averaging_n=200,
)
#: Thread "b" runs ungated: the only way a zero-elapsed interval gets past
#: the lightweight gate.
CONFIG_UNGATED = dataclasses.replace(CONFIG, min_testpoint_interval=0.0)

STEPS = 400
#: Virtual-time windows in which every step takes four times longer.
EPISODES = ((8.0, 12.0), (70.0, 80.0), (100.0, 110.0))
#: Steps of thread "a" that report metric set 1 (one counter) instead of 0.
SET_ONE_STEPS = range(150, 180)
#: (thread, step) -> how the step is bent.
SCRIPT = {
    ("a", 30): "lightweight",
    ("a", 60): "hung",
    ("a", 90): "clock_backward",
    ("a", 120): "stall",
    ("b", 40): "zero_elapsed",
    ("b", 70): "rate_spike",
}
#: From this step on, thread "b"'s first suspended testpoint is followed
#: by an off-protocol call before its suspension ends.
OFF_PROTOCOL_AFTER = ("b", 100)

#: Recorded before the testpoint path's bit-identical fast path.
PINNED_DIGEST = "c6f4135ba754c4915d945e20a9781b8cef7c76a451fdc3dc84367903223e513f"

_FIELDS = [f.name for f in dataclasses.fields(controller.TestpointDecision)]


def _row(tid: str, now: float, index: int, decision) -> list:
    values = [getattr(decision, name) for name in _FIELDS]
    judgment = _FIELDS.index("judgment")
    if values[judgment] is not None:
        values[judgment] = values[judgment].value
    values[_FIELDS.index("deltas")] = list(decision.deltas)
    return [tid, now, index, *values]


def run_decision_stream(seed: int) -> tuple[list, dict]:
    """Drive the scripted stream; return (decision rows, final states)."""
    rng = random.Random(seed)
    sup = Supervisor(
        CONFIG,
        superintendent=Superintendent(usage_decay=CONFIG.usage_decay),
        process_id="p",
    )
    sup.register_thread("a")
    sup.register_thread("b", config=CONFIG_UNGATED)
    counters = {tid: {0: [0.0, 0.0], 1: [0.0]} for tid in ("a", "b")}
    position = {"a": 0, "b": 0}
    last_arrival = {"a": 0.0, "b": 0.0}
    rows: list = []
    states: dict = {}
    off_protocol_done = False
    now = 0.0

    def testpoint(tid: str, when: float, index: int):
        decision = sup.on_testpoint(when, tid, index, tuple(counters[tid][index]))
        rows.append(_row(tid, when, index, decision))
        if decision.processed:
            last_arrival[tid] = when
        return decision

    for tid in ("a", "b"):
        testpoint(tid, now, 0)  # priming call
    active = {"a", "b"}
    running = None
    while active:
        sup.check_hung(now)
        owner = sup.poll(now)
        if owner is None:
            wake = sup.next_poll_time(now)
            assert wake is not None, "the stream stalled"
            now = max(now, wake)
            continue
        if owner != running:
            sup.regulator(owner).mark_resumed(now)
            running = owner
        k = position[owner]
        position[owner] = k + 1
        blocks = rng.randint(8, 120)
        work = (0.02 + 0.001 * blocks) * rng.lognormvariate(0.0, 0.1)
        if any(start <= now < end for start, end in EPISODES):
            work *= 4.0
        action = SCRIPT.get((owner, k))
        if action == "lightweight":
            work = 0.01
        elif action == "hung":
            work = 45.0
        elif action == "zero_elapsed":
            work = 0.0
        elif action == "rate_spike":
            work = 1e-6
        elif action == "stall":
            now += 5.0
            assert sup.check_hung(now) == owner, "the watchdog did not evict"
            work = 0.2
        index = 1 if owner == "a" and k in SET_ONE_STEPS else 0
        now += work
        if action == "clock_backward":
            now = last_arrival[owner] - 1.0
        set_counters = counters[owner]
        set_counters[0][0] += blocks
        set_counters[0][1] += 1
        set_counters[1][0] += 1
        decision = testpoint(owner, now, index)
        if decision.processed:
            running = None
            if (
                owner == OFF_PROTOCOL_AFTER[0]
                and k >= OFF_PROTOCOL_AFTER[1]
                and not off_protocol_done
                and decision.delay > 0.0
            ):
                # The application ignores its suspension and reports again
                # halfway through it.
                off_protocol_done = True
                now += decision.delay / 2.0
                set_counters[0][0] += 1
                set_counters[0][1] += 1
                testpoint(owner, now, 0)
        if k + 1 == STEPS:
            regulator = sup.regulator(owner)
            states[owner] = {
                "state": regulator.export_state(include_runtime=True),
                "stats": dataclasses.asdict(regulator.stats),
            }
            sup.unregister_thread(owner)
            active.discard(owner)
            running = None
    return rows, states


def stream_digest(rows: list, states: dict) -> str:
    text = json.dumps([rows, states], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedDecisionStream:
    def test_stream_reaches_every_branch(self):
        rows, states = run_decision_stream(seed=21)
        a, b = states["a"]["stats"], states["b"]["stats"]
        assert a["lightweight"] >= 1
        assert a["hung_discards"] >= 1
        assert a["clock_anomalies"] >= 1
        assert a["forced_discards"] >= 1  # the watchdog discard
        assert b["zero_elapsed_discards"] >= 1
        assert b["rate_spike_discards"] >= 1
        assert b["off_protocol_samples"] >= 1
        for stats in (a, b):
            assert stats["poor_judgments"] >= 1 and stats["good_judgments"] >= 1
        anomalies = {row[3 + _FIELDS.index("anomaly")] for row in rows}
        assert {"clock_backward", "zero_elapsed", "rate_spike", "watchdog_stall"} <= anomalies
        # Metric set 1 is first seen mid-run: its first report is a
        # processed baseline, later ones are measured against it.
        deltas = 3 + _FIELDS.index("deltas")
        set_one = [row for row in rows if row[2] == 1 and row[3]]
        assert set_one[0][deltas] == []
        assert any(row[deltas] == [1.0] for row in set_one[1:])

    def test_matches_pinned_digest(self):
        rows, states = run_decision_stream(seed=21)
        assert stream_digest(rows, states) == PINNED_DIGEST
