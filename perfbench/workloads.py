"""The benchmark's three workloads, their output checks and digests.

* ``fig3_contended`` and ``fig5_idle`` run paper scenarios through the
  public ``repro.experiments.scenarios.measured_trial`` entry point, one
  trial per seed, serially, with the repo's defaults and no trial cache.
* ``testpoint_loop`` drives the section 7.1 library path with no
  simulator: two regulated threads of one process under ``DEFAULT_CONFIG``
  on a virtual clock, reporting the defragmenter's two-counter metric set
  through ``Supervisor.on_testpoint``/``poll``.  Every work duration,
  counter increment and contention episode is generated here from the seed;
  the program receives only the resulting testpoint stream.

Every trial returns a record of simulated outputs; :func:`digest` hashes a
list of records, so two commits that only change speed print identical
digests.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
import time

from refloop import percentile

#: Workload size of both Fig workloads (multiplies the paper's sizes).
FIG_SCALE = 0.2

#: testpoint_loop: regulated threads, and steps (testpoint calls) per thread.
TP_THREADS = ("defrag:C", "defrag:D")
TP_STEPS = 1000
#: The step model, fitted by ``fit_stream.py`` to the defragmenter of
#: ``defrag_database`` in MS Manners mode at FIG_SCALE, seeds 1-8 (5,120
#: steps).  A step relocates one file of the scenario's size range
#: (``_fragmented_volume``: 32-480 KiB, 4 KiB blocks, so 8-120 blocks) and
#: takes (base + per_block * blocks) * lognormal(0, sigma) seconds.
TP_FILE_BYTES = (32 * 1024, 480 * 1024)
TP_BLOCK_BYTES = 4096
TP_WORK_BASE_S = 0.0178
TP_WORK_PER_BLOCK_S = 0.000853
TP_WORK_SIGMA = 0.079
#: Progress slowdown while the database load runs (median of 271 steps).
TP_SLOWDOWN = 4.08
#: The stream repeats the scenario's timeline: the threads run alone for
#: TP_SOLO_S (when the load starts), then a contention episode lasts as
#: long as a database load did (the range over the fitted seeds).
TP_SOLO_S = 30.0
TP_EPISODE_S = (59.2, 60.7)
#: Contention episodes are generated up to this virtual time.
TP_HORIZON = 6000.0
#: Absolute tolerance when checking a POOR delay against the backoff law.
_DELAY_TOL = 1e-9


def digest(records: list[dict]) -> str:
    """SHA-256 over records of simulated outputs (exact float reprs)."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _regulator_totals(regulators) -> dict:
    """Sum of the regulation statistics over the regulators a trial built."""
    totals = {
        "regulators": len(regulators),
        "testpoints": 0,
        "processed": 0,
        "poor": 0,
        "good": 0,
        "suspension_sim_s": 0.0,
    }
    for regulator in regulators:
        stats = regulator.stats
        totals["testpoints"] += stats.testpoints
        totals["processed"] += stats.processed
        totals["poor"] += stats.poor_judgments
        totals["good"] += stats.good_judgments
        totals["suspension_sim_s"] += stats.total_suspension
    return totals


class FigWorkload:
    """A paper scenario run one trial per seed through ``measured_trial``."""

    def __init__(self, name: str, scenario: str, mode: str, database: bool, regulated: bool):
        self.name = name
        self.scenario = scenario
        self.mode = mode
        self.database = database
        self.regulated = regulated

    def run_trial(self, seed: int, probe) -> tuple[float, dict]:
        """Run one trial; return (host seconds, record of simulated outputs)."""
        from repro.experiments.scenarios import measured_trial

        probe.reset_captures()
        with probe.trial(seed):
            start = time.perf_counter()
            result = measured_trial(self.scenario, self.mode, seed, scale=FIG_SCALE)
            host_s = time.perf_counter() - start
        record = {"seed": seed, **result, **_regulator_totals(probe.regulators)}
        return host_s, record

    def events(self, record: dict) -> int:
        return record["events_fired"]

    def check(self, record: dict) -> list[str]:
        """Output checks for one trial record; an empty list means it passed."""
        failures = []
        li_time = record.get("li_time")
        if li_time is None or not math.isfinite(li_time) or li_time <= 0.0:
            failures.append(f"li_time is not a finite positive time: {li_time!r}")
        hi_time = record.get("hi_time")
        if self.database and (hi_time is None or not math.isfinite(hi_time) or hi_time <= 0.0):
            failures.append(f"hi_time is not a finite positive time: {hi_time!r}")
        if record.get("events_fired", 0) <= 0:
            failures.append("the simulation fired no events")
        if self.regulated and record.get("poor", 0) < 1:
            failures.append("no POOR judgment in a contended trial")
        if not self.regulated and (record.get("testpoints", 0) or record.get("regulators", 0)):
            failures.append(
                f"unregulated trial made {record.get('testpoints')} regulator testpoint calls"
            )
        return failures


# ---------------------------------------------------------------------------
# testpoint_loop
# ---------------------------------------------------------------------------

def make_stream(seed: int) -> dict:
    """The seeded input of one testpoint_loop trial.

    Per thread: ``TP_STEPS`` steps of ``(work seconds, blocks moved)`` from
    the step model fitted to the Fig 3 defragmenter (see the ``TP_*``
    constants), so the two-counter ridge calibration has the scenario's
    relation between blocks and time to learn.  Shared: contention
    episodes ``(start, end)`` in virtual seconds, each after ``TP_SOLO_S``
    of solo running, during which every step that starts takes
    ``TP_SLOWDOWN`` times longer.
    """
    rng = random.Random(seed)
    threads = {}
    for tid in TP_THREADS:
        steps = []
        for _ in range(TP_STEPS):
            blocks = -(-rng.randint(*TP_FILE_BYTES) // TP_BLOCK_BYTES)
            work = (TP_WORK_BASE_S + TP_WORK_PER_BLOCK_S * blocks) * rng.lognormvariate(
                0.0, TP_WORK_SIGMA
            )
            steps.append((work, blocks))
        threads[tid] = steps
    episodes = []
    t = 0.0
    while t < TP_HORIZON:
        t += TP_SOLO_S
        length = rng.uniform(*TP_EPISODE_S)
        episodes.append((t, t + length))
        t += length
    return {"threads": threads, "episodes": episodes}


def backoff_delay(config, level: int) -> float:
    """The section 4.1 law: ``min(initial * 2**level, max)``."""
    return min(config.initial_suspension * 2.0 ** min(level, 1023), config.max_suspension)


def run_stream(stream: dict, latencies: list | None = None) -> tuple[dict, list]:
    """Drive one stream through a Supervisor on a virtual clock.

    The loop is closed, as the realtime adapter's is: a thread seated by
    ``poll`` is marked resumed, runs its next step, and testpoints at
    release time plus the step's work.  A lightweight (unprocessed)
    testpoint keeps the slot.  When nobody may run, the clock jumps to
    ``next_poll_time``.  With ``latencies``, the host nanoseconds of each
    ``Supervisor.on_testpoint`` call are appended to it.

    Returns (record, decisions): the record of simulated outputs and the
    ``(thread, delay, judgment)`` list of processed decisions.
    """
    from repro.core.config import DEFAULT_CONFIG
    from repro.core.signtest import Judgment
    from repro.core.superintendent import Superintendent
    from repro.core.supervisor import Supervisor

    config = DEFAULT_CONFIG
    sup = Supervisor(
        config,
        superintendent=Superintendent(usage_decay=config.usage_decay),
        process_id="defrag",
    )
    threads = stream["threads"]
    episodes = stream["episodes"]
    episode_starts = [start for start, _ in episodes]
    clock = time.perf_counter_ns
    position = {tid: 0 for tid in threads}
    counters = {tid: [0.0, 0.0] for tid in threads}
    level = {tid: 0 for tid in threads}
    decisions: list = []
    mismatches = 0
    calls = 0
    now = 0.0

    def testpoint(tid, now):
        nonlocal mismatches, calls
        metrics = (counters[tid][0], counters[tid][1])
        calls += 1
        if latencies is None:
            decision = sup.on_testpoint(now, tid, 0, metrics)
        else:
            start = clock()
            decision = sup.on_testpoint(now, tid, 0, metrics)
            latencies.append(clock() - start)
        if decision.processed:
            judgment = decision.judgment
            if judgment is Judgment.POOR:
                imposed = decision.delay - decision.probation_delay
                if abs(imposed - backoff_delay(config, level[tid])) > _DELAY_TOL:
                    mismatches += 1
                level[tid] += 1
            elif judgment is Judgment.GOOD:
                level[tid] = 0
            decisions.append(
                (tid, decision.delay, None if judgment is None else judgment.value)
            )
        return decision

    for tid in threads:
        sup.register_thread(tid)
        testpoint(tid, now)  # priming call: establishes baselines
    active = set(threads)
    running = None
    stalled = False
    while active:
        sup.check_hung(now)
        owner = sup.poll(now)
        if owner is None:
            wake = sup.next_poll_time(now)
            if wake is None:
                stalled = True
                break
            now = max(now, wake)
            continue
        if owner != running:
            sup.regulator(owner).mark_resumed(now)
            running = owner
        k = position[owner]
        work, blocks = threads[owner][k]
        position[owner] = k + 1
        i = bisect.bisect_right(episode_starts, now) - 1
        if i >= 0 and now < episodes[i][1]:
            work *= TP_SLOWDOWN
        now += work
        counters[owner][0] += blocks
        counters[owner][1] += 1
        decision = testpoint(owner, now)
        if decision.processed:
            running = None
        if k + 1 == len(threads[owner]):
            sup.unregister_thread(owner)
            active.discard(owner)
            running = None
    record = {
        "calls": calls,
        "processed": len(decisions),
        "poor": sum(1 for d in decisions if d[2] == "poor"),
        "good": sum(1 for d in decisions if d[2] == "good"),
        "suspension_sim_s": sum(d[1] for d in decisions),
        "virtual_end_s": now,
        "backoff_mismatches": mismatches,
        "unfinished": sorted(active) if stalled else [],
    }
    return record, decisions


class TestpointLoop:
    """The library path with no simulator: one seeded stream per trial."""

    name = "testpoint_loop"

    def __init__(self) -> None:
        #: Per untraced trial: (p50, p99) host µs of its on_testpoint calls.
        self.latency_us: list[tuple[float, float]] = []

    def run_trial(self, seed: int, probe) -> tuple[float, dict]:
        stream = make_stream(seed)
        probe.reset_captures()
        latencies = None if probe.trace else []
        with probe.trial(seed):
            start = time.perf_counter()
            record, decisions = run_stream(stream, latencies)
            host_s = time.perf_counter() - start
        if latencies:
            us = [ns / 1000.0 for ns in latencies]
            self.latency_us.append((percentile(us, 50.0), percentile(us, 99.0)))
        record["seed"] = seed
        record["decisions_sha256"] = digest([list(d) for d in decisions])
        record.update(
            {f"regulator_{k}": v for k, v in _regulator_totals(probe.regulators).items()}
        )
        return host_s, record

    def events(self, record: dict) -> int:
        return record["calls"]

    def check(self, record: dict) -> list[str]:
        failures = []
        if record["unfinished"]:
            failures.append(f"threads never finished their streams: {record['unfinished']}")
        if record["backoff_mismatches"]:
            failures.append(
                f"{record['backoff_mismatches']} POOR delays broke min(initial*2^k, max)"
            )
        if record["poor"] < 1:
            failures.append("no POOR judgment despite contention episodes")
        if record["calls"] != len(TP_THREADS) * (TP_STEPS + 1):
            failures.append(f"expected {len(TP_THREADS) * (TP_STEPS + 1)} calls, got {record['calls']}")
        if record["regulator_testpoints"] != record["calls"]:
            failures.append("regulator testpoint count disagrees with the calls made")
        return failures


WORKLOADS = {
    "fig3_contended": FigWorkload(
        "fig3_contended", "defrag_database", "MS Manners", database=True, regulated=True
    ),
    "fig5_idle": FigWorkload(
        "fig5_idle", "defrag_idle", "unregulated", database=False, regulated=False
    ),
    "testpoint_loop": TestpointLoop(),
}
