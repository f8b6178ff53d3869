"""Tests of the benchmark's own code.

Run from the root of the repo with ``python3 -m pytest perfbench/tests``.
They cover the seeded input stream, its fit to the Fig 3 scenario, and
digests; the self-time arithmetic; the host-speed normalization; the output
checks (including a sabotaged program); tracing neutrality and missing entry
points; the peak-memory probe; and the run's refusals.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fit_stream  # noqa: E402
import refloop  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FIG3 = workloads.WORKLOADS["fig3_contended"]
FIG5 = workloads.WORKLOADS["fig5_idle"]

#: A fig3_contended record as a correct trial produces it.
GOOD_FIG3 = {
    "seed": 1, "hi_time": 59.4, "li_time": 116.8, "events_fired": 28035, "move_ops": 640,
    "regulators": 1, "testpoints": 640, "processed": 345, "poor": 6, "good": 50,
    "suspension_sim_s": 63.0,
}
GOOD_FIG5 = {
    **GOOD_FIG3, "hi_time": None, "regulators": 0, "testpoints": 0, "processed": 0,
    "poor": 0, "good": 0, "suspension_sim_s": 0.0,
}


def short_stream(seed: int, steps: int = 150) -> dict:
    stream = workloads.make_stream(seed)
    stream["threads"] = {tid: s[:steps] for tid, s in stream["threads"].items()}
    return stream


def test_same_seed_gives_the_same_stream():
    assert workloads.make_stream(5) == workloads.make_stream(5)
    assert workloads.make_stream(5) != workloads.make_stream(6)


def test_same_stream_gives_the_same_outputs_and_digest():
    first = workloads.run_stream(short_stream(5))
    second = workloads.run_stream(short_stream(5))
    assert first == second
    assert workloads.digest([first[0]]) == workloads.digest([second[0]])


def test_stream_constants_match_a_fresh_fit_to_the_fig3_defragmenter():
    found = fit_stream.fit((1, 2), workloads.FIG_SCALE)
    lo, hi = (-(-b // workloads.TP_BLOCK_BYTES) for b in workloads.TP_FILE_BYTES)
    assert lo <= found["blocks"][0] and found["blocks"][1] == hi
    assert found["base_s"] == pytest.approx(workloads.TP_WORK_BASE_S, rel=0.05)
    assert found["per_block_s"] == pytest.approx(workloads.TP_WORK_PER_BLOCK_S, rel=0.05)
    assert found["sigma"] == pytest.approx(workloads.TP_WORK_SIGMA, rel=0.2)
    assert found["slowdown"] == pytest.approx(workloads.TP_SLOWDOWN, rel=0.1)
    assert found["solo_s"] == workloads.TP_SOLO_S
    assert found["episode_s"][0] == pytest.approx(workloads.TP_EPISODE_S[0], abs=0.5)


def test_digest_sees_the_last_bit_of_a_float():
    assert workloads.digest([{"t": 0.1}]) != workloads.digest([{"t": math.nextafter(0.1, 1.0)}])


def test_self_time_subtracts_the_time_children_cover():
    tree = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 2.0, 3.0, 1, 1],
        ["a", 5.0, 6.0, 0, 1],
        ["c", 5.5, 7.0, 0, 1],  # overlaps its sibling: covered time is a union
    ]
    assert spans.self_times(tree) == pytest.approx({"root": 5.0, "a": 3.0, "b": 1.0, "c": 1.5})


def test_self_time_clips_a_child_to_its_parent():
    tree = [["p", 0.0, 2.0, -1, 1], ["q", 1.5, 3.0, 0, 1]]
    assert spans.self_times(tree) == pytest.approx({"p": 1.5, "q": 1.5})


def test_tracer_links_parents_and_counts_calls():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "inner", count="inner.calls")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    outer()
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("outer", -1), ("inner", 2),
    ]
    assert tracer.counts["inner.calls"] == 2
    assert tracer.stack == []


def test_tracing_changes_no_output_and_restores_the_program():
    from repro.core.supervisor import Supervisor

    original = Supervisor.__dict__["on_testpoint"]
    with spans.Probe(trace=False):
        plain = workloads.run_stream(short_stream(9))
    with spans.Probe(trace=True) as probe:
        traced = workloads.run_stream(short_stream(9))
    assert plain == traced
    assert Supervisor.__dict__["on_testpoint"] is original
    names = {span[0] for span in probe.tracer.spans}
    assert {"core.arbitration", "core.testpoint", "core.calibration", "core.comparator"} <= names


def test_a_missing_entry_point_fails_and_restores_the_program(monkeypatch):
    from repro.core.supervisor import Supervisor
    from repro.simos.disk import Disk

    original = Supervisor.__dict__["on_testpoint"]
    monkeypatch.delattr(Disk, "submit")
    with pytest.raises(spans.MissingEntryPoint, match="Disk.submit"):
        with spans.Probe(trace=True):
            pass
    assert Supervisor.__dict__["on_testpoint"] is original


def test_normalize_rescales_by_the_reference_time():
    assert refloop.normalize(2.0, 0.04, nominal=0.02) == pytest.approx(1.0)
    assert refloop.normalize(2.0, 0.01, nominal=0.02) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        refloop.normalize(1.0, 0.0)


def test_percentile_interpolates_between_ranks():
    assert refloop.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert refloop.percentile([float(v) for v in range(11)], 90) == 9.0
    assert refloop.percentile([7.0], 99) == 7.0


def test_reference_loop_is_fixed_work_outside_the_program():
    assert refloop.ReferenceLoop(nodes=1000).walk(500) == refloop.ReferenceLoop(nodes=1000).walk(500)
    halves = refloop.ReferenceLoop(nodes=1000)
    first, second = halves.walk(500), halves.walk(500)
    assert first != second  # each call walks on from where the last one stopped
    assert first + second == pytest.approx(refloop.ReferenceLoop(nodes=1000).walk(1000))
    loop = refloop.ReferenceLoop(nodes=1000)
    assert loop.events(2000) == loop.events(2000) > 0.0
    assert loop.time() > 0.0
    source = (BENCH / "refloop.py").read_text().splitlines()
    imported = [line.split()[1] for line in source if line.startswith(("import ", "from "))]
    assert not any(name.startswith("repro") for name in imported)


def test_fig_checks_accept_correct_records():
    assert FIG3.check(GOOD_FIG3) == []
    assert FIG5.check(GOOD_FIG5) == []


@pytest.mark.parametrize(
    "field, value",
    [("li_time", math.nan), ("li_time", None), ("hi_time", math.inf), ("hi_time", None),
     ("poor", 0), ("events_fired", 0)],
)
def test_fig3_checks_reject_a_sabotaged_record(field, value):
    assert FIG3.check({**GOOD_FIG3, field: value})


def test_fig5_check_rejects_regulator_calls():
    assert FIG5.check({**GOOD_FIG5, "testpoints": 1})


def test_stream_check_catches_a_broken_backoff_law(monkeypatch):
    from repro.core.suspension import SuspensionTimer

    loop = workloads.TestpointLoop()
    with spans.Probe(trace=False) as probe:
        _, record = loop.run_trial(3, probe)
    assert loop.check(record) == []
    on_poor = SuspensionTimer.on_poor
    monkeypatch.setattr(SuspensionTimer, "on_poor", lambda timer: on_poor(timer) * 1.5)
    with spans.Probe(trace=False) as probe:
        _, broken = loop.run_trial(3, probe)
    assert broken["backoff_mismatches"] > 0
    assert any("POOR delays" in failure for failure in loop.check(broken))


def test_peak_memory_probe_runs_trials_in_a_fresh_interpreter():
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), "fig5_idle", "--trials", "1",
         "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout.splitlines()[-1])
    assert found["peak_rss_mb"] > 0.0 and found["setup_s"] > 0.0


def run_bench(cwd: Path, **env_extra: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(env_extra)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5_idle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_refuses_to_run_with_repro_variables_set():
    done = run_bench(ROOT, REPRO_ENGINE="heap")
    assert done.returncode == 2
    assert "REPRO_ENGINE" in done.stderr
    assert done.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = run_bench(tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
