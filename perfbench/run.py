#!/usr/bin/env python3
"""The repo benchmark: paper-scenario throughput, cold start and per-layer cost.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3_contended --seed 1 --seconds 20 --trace 0

The workloads are ``fig3_contended``, ``fig5_idle`` and ``testpoint_loop``;
``perfbench/README.md`` records why each was chosen, its size, and which
layers it loads and bypasses.

With ``--trace 0`` the run measures the end-to-end metrics listed in
``BENCHMARK.json``: it times cold starts in fresh interpreters, runs one
untimed warm-up trial, then runs trials with seeds ``seed, seed+1, ...``
serially until ``--seconds`` have passed.  With ``--trace 1`` it runs trial
pairs instead, the same seed untraced and then traced, and reports the
per-layer metrics.

The host-speed reference loop (``refloop.py``) runs before and after every
trial and cold start, and each host time is reported multiplied by
``NOMINAL_REF_S`` over the mean reference time around it, with the raw
value beside it.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the benchmark
cannot run here (a ``REPRO_*`` variable is set, the program's source is
missing, or it no longer has an entry point the probe wraps).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh-interpreter cold starts per run, after one discarded warm-up.
SETUP_REPS = 9
#: Trials run by the fresh interpreter that measures peak memory.
RSS_TRIALS = 3
#: Least number of measured trials in an untraced run.
MIN_TRIALS = 8
#: Least number of trial pairs in a traced run.  Counts are per-trial means
#: over exactly the first this-many traced trials, so they repeat exactly.
COUNT_TRIALS = 3
#: Trials covered by the printed fixed-prefix digest.
DIGEST_TRIALS = 4
#: Kept out of tuning: use it only to confirm a claim made on other seeds.
HELD_OUT_SEED = 7919

#: Per-layer metrics that are host self times of the span of that name.
SELF_TIME_METRICS = {
    "simos.engine.self_s": "simos.engine",
    "simos.kernel.self_s": "simos.kernel",
    "apps.self_s": "apps",
    "simos.disk.self_s": "simos.disk",
    "simos.bus.self_s": "simos.bus",
    "simos.cpu.self_s": "simos.cpu",
    "simos.filesystem.populate_s": "simos.filesystem.populate",
    "simos.filesystem.relocate_s": "simos.filesystem.relocate",
    "core.testpoint_self_s": "core.testpoint",
    "core.calibration_s": "core.calibration",
    "core.comparator_s": "core.comparator",
    "core.arbitration_s": "core.arbitration",
    "harness.self_s": "harness",
    "other.self_s": "other",
}

#: Per-layer counts taken from the tracer's call counters.
CALL_COUNT_METRICS = (
    "simos.engine.posts",
    "simos.kernel.delivers",
    "simos.disk.requests",
    "simos.bus.transfers",
    "simos.cpu.requests",
    "simos.filesystem.relocations",
)

ATTRIBUTION_NOTE = (
    "attribution: self time = span duration minus the time its child spans "
    "cover; private helpers count in the span that called them (e.g. "
    "Disk._pump in simos.disk, Kernel._advance in simos.kernel); engine, bus "
    "and effect-handler callbacks run in spans named after the module that "
    "defined them, so simos.engine.self_s is the dispatch loop alone"
)


def fail_setup(message: str) -> None:
    """Report why the benchmark cannot run here and exit with code 2."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def preflight() -> dict:
    """Refuse to run outside the repo defaults or without the program."""
    overrides = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if overrides:
        fail_setup(
            "refusing to run with REPRO_* variables set, so the benchmark always "
            f"measures the repo defaults: {', '.join(overrides)}"
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        fail_setup(f"the program's source is missing: no {SRC / 'repro'} package")
    manifest_path = ROOT / "BENCHMARK.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        fail_setup(f"cannot read {manifest_path}: {exc}")
    sys.path.insert(0, str(SRC))
    return manifest


def environment_line() -> str:
    try:
        from repro.simos.kernel import make_engine

        core = type(make_engine()).__name__
    except ImportError:
        core = "unknown"
    return (
        f"env engine_core={core} python={platform.python_version()} "
        f"nproc={len(os.sched_getaffinity(0))}"
    )


class Run:
    """One benchmark run: checked trials, failures and reference timings."""

    def __init__(self, workload, seed: int) -> None:
        from refloop import ReferenceLoop

        self.workload = workload
        self.seed = seed
        self.reference = ReferenceLoop()
        self.refs: list[float] = []
        self.attempted = 0
        self.failed_trials = 0
        self.failures: list[str] = []

    def interleave(self, jobs):
        """Run each job between two reference timings.

        Yields ``(result, ref_s)`` with ``ref_s`` the mean of the reference
        times taken just before and just after the job.
        """
        before = self.reference.time()
        self.refs.append(before)
        for job in jobs:
            result = job()
            after = self.reference.time()
            self.refs.append(after)
            yield result, (before + after) / 2.0
            before = after

    def seeds(self, seconds: float, minimum: int):
        """``seed, seed+1, ...`` until ``seconds`` have passed and ``minimum`` are out."""
        start = time.perf_counter()
        i = 0
        while i < minimum or time.perf_counter() - start < seconds:
            yield self.seed + i
            i += 1

    def trial(self, seed: int, probe):
        """One checked trial: ``(host seconds, record)``, or None if it raised."""
        self.attempted += 1
        try:
            host_s, record = self.workload.run_trial(seed, probe)
        except Exception:
            self.failed_trials += 1
            self.failures.append(f"seed {seed} raised:\n{traceback.format_exc(limit=6)}")
            return None
        problems = self.workload.check(record)
        if problems:
            self.failed_trials += 1
            self.failures.extend(f"seed {seed}: {p}" for p in problems)
        return host_s, record

    def expect_same(self, what: str, first, second) -> None:
        """Fail the run when two trials of one seed simulated different outputs."""
        if first is not None and second is not None and first[1] != second[1]:
            self.failed_trials += 1
            self.failures.append(f"{what}: records differ\n  {first[1]}\n  {second[1]}")


def setup_probe(workload: str, *extra: str) -> dict:
    """Run ``setup_probe.py`` in a fresh interpreter; return its JSON line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, *extra],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_setup(run: Run) -> list[tuple[dict, float]]:
    """Cold starts in fresh interpreters: ``[(timings, reference seconds)]``."""
    cold_start = functools.partial(setup_probe, run.workload.name)
    starts = list(run.interleave([cold_start] * (SETUP_REPS + 1)))
    return starts[1:]  # the first start also compiles bytecode


def measure_peak_rss(run: Run) -> float:
    """Peak resident MB of a fresh interpreter running the first RSS_TRIALS trials."""
    found = setup_probe(
        run.workload.name, "--trials", str(RSS_TRIALS), "--seed", str(run.seed)
    )
    return found["peak_rss_mb"]


def run_untraced(run: Run, seconds: float) -> list[tuple[float, float, dict]]:
    """Measured trials as ``(host seconds, reference seconds, record)``."""
    from spans import Probe

    with Probe(trace=False) as probe:
        warm = run.trial(run.seed, probe)  # lazy set-up; also a determinism check
        jobs = (
            functools.partial(run.trial, seed, probe)
            for seed in run.seeds(seconds, MIN_TRIALS)
        )
        done = list(run.interleave(jobs))
    run.expect_same(f"seed {run.seed}: warm-up vs first measured trial", warm, done[0][0])
    return [(result[0], ref_s, result[1]) for result, ref_s in done if result is not None]


def kernel_disk_latency(kernels) -> tuple[float, int]:
    """(total simulated submit-to-completion seconds, requests) over all disks."""
    total = 0.0
    requests = 0
    for kernel in kernels:
        for disk in kernel.disks.values():
            total += disk.stats.queue_wait_time + disk.stats.busy_time
            requests += disk.stats.requests
    return total, requests


def run_traced(run: Run, seconds: float) -> tuple[list[dict], list]:
    """Trial pairs (untraced, then traced, same seed) until time is up.

    Returns the per-pair measurements and the spans of the first traced trial.
    """
    from spans import Probe, self_times

    with Probe(trace=False) as probe:
        run.trial(run.seed, probe)  # warm-up
    first_spans: list = []

    def pair(seed: int):
        with Probe(trace=False) as probe:
            plain = run.trial(seed, probe)
        with Probe(trace=True) as probe:
            traced = run.trial(seed, probe)
        run.expect_same(f"seed {seed}: untraced vs traced", plain, traced)
        if plain is None or traced is None:
            return None
        latency, requests = kernel_disk_latency(probe.kernels)
        if not first_spans:
            first_spans.extend(probe.tracer.spans)
        return {
            "untraced_s": plain[0],
            "traced_s": traced[0],
            "record": traced[1],
            "self": self_times(probe.tracer.spans),
            "counts": Counter(probe.tracer.counts),
            "disk_latency_sim_s": latency,
            "disk_requests": requests,
        }

    pairs: list[dict] = []
    jobs = (functools.partial(pair, seed) for seed in run.seeds(seconds, COUNT_TRIALS))
    for result, ref_s in run.interleave(jobs):
        if result is not None:
            pairs.append({**result, "ref_s": ref_s})
    return pairs, first_spans


def write_spans(run: Run, spans: list) -> None:
    """Write one traced trial's spans as JSON lines, times from its start."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{run.workload.name}-seed{run.seed}.jsonl"
    origin = spans[0][1] if spans else 0.0
    with path.open("w") as out:
        for name, start, end, parent, trial in spans:
            out.write(json.dumps([name, start - origin, end - origin, parent, trial]) + "\n")
    print(f"spans: {len(spans)} spans of trial {run.seed} written to {path.relative_to(ROOT)}")


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def setup_medians(setups: list[tuple[dict, float]], normalized: bool) -> dict:
    """Median cold-start timings over the run's fresh interpreters."""
    from refloop import normalize

    def value(timings: dict, key: str, ref_s: float) -> float:
        return normalize(timings[key], ref_s) if normalized else timings[key]

    return {
        key: statistics.median(value(timings, key, ref_s) for timings, ref_s in setups)
        for key in ("setup_s", "import_s", "signtest_tables_s")
    }


def end_to_end(run: Run, trials, setups, normalized: bool, rss_mb: float) -> dict:
    """End-to-end metrics of an untraced run, normalized or raw."""
    from refloop import normalize, percentile

    times = [normalize(host, ref) if normalized else host for host, ref, _ in trials]
    total = sum(times)
    events = sum(run.workload.events(record) for _, _, record in trials)
    return {
        "trials_per_s": len(times) / total,
        "trial_s_p50": statistics.median(times),
        "trial_s_p75": percentile(times, 75.0),
        "sim_events_per_s": events / total,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_medians(setups, normalized)["setup_s"],
    }


def per_layer(pairs: list[dict], setups, normalized: bool) -> dict:
    """Per-layer metrics of a traced run (per-trial means)."""
    from refloop import normalize

    selfs: dict[str, float] = defaultdict(float)
    for pair in pairs:
        scale = normalize(1.0, pair["ref_s"]) if normalized else 1.0
        for name, value in pair["self"].items():
            selfs[name] += value * scale
    n = len(pairs)
    timed = sum(selfs.values())
    core = sum(value for name, value in selfs.items() if name.startswith("core."))
    setup = setup_medians(setups, normalized)
    metrics = {
        "setup.import_s": setup["import_s"],
        "setup.signtest_tables_s": setup["signtest_tables_s"],
        "trace.timed_s": timed / n,
        "trace.overhead_ratio": sum(p["traced_s"] for p in pairs)
        / sum(p["untraced_s"] for p in pairs),
        "core.host_share": core / timed if timed else 0.0,
    }
    for metric, span_name in SELF_TIME_METRICS.items():
        metrics[metric] = selfs.get(span_name, 0.0) / n
    counted = pairs[:COUNT_TRIALS]
    for name in CALL_COUNT_METRICS:
        metrics[name] = mean(p["counts"][name] for p in counted)
    records = [p["record"] for p in counted]
    testpoints = sum(r.get("testpoints", r.get("regulator_testpoints", 0)) for r in records)
    metrics["simos.engine.events"] = mean(r.get("events_fired", 0) for r in records)
    metrics["core.testpoints"] = testpoints / len(records)
    metrics["core.processed_ratio"] = (
        sum(r["processed"] for r in records) / testpoints if testpoints else 0.0
    )
    metrics["core.poor_judgments"] = mean(r["poor"] for r in records)
    metrics["core.good_judgments"] = mean(r["good"] for r in records)
    metrics["core.suspension_sim_s"] = mean(r["suspension_sim_s"] for r in records)
    requests = sum(p["disk_requests"] for p in counted)
    metrics["simos.disk.latency_sim_s"] = (
        sum(p["disk_latency_sim_s"] for p in counted) / requests if requests else 0.0
    )
    return metrics


def print_testpoint_metrics(run: Run, trials) -> None:
    """testpoint_loop only: processed testpoints per normalized second, and
    normalized µs per ``Supervisor.on_testpoint`` call.

    The latencies are medians over the run's untraced trials of each
    trial's percentile.
    """
    from refloop import normalize

    per_trial = getattr(run.workload, "latency_us", None)
    if not per_trial or not trials:
        return
    processed = sum(record["processed"] for _, _, record in trials)
    print(
        f"metric testpoints_per_s = "
        f"{processed / sum(normalize(host, ref) for host, ref, _ in trials):.6g} 1/s "
        f"(raw {processed / sum(host for host, _, _ in trials):.6g}; processed only)"
    )
    factor = normalize(1.0, statistics.median(run.refs))
    for i, name in enumerate(("testpoint_us_p50", "testpoint_us_p99")):
        raw = statistics.median(trial[i] for trial in per_trial)
        print(
            f"metric {name} = {raw * factor:.6g} us (raw {raw:.6g}; median over "
            f"{len(per_trial)} trials, normalized by the run's median reference time)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest = preflight()
    from refloop import NOMINAL_REF_S
    from spans import MissingEntryPoint
    from workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(
        f"perfbench workload={workload.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    if args.seed == HELD_OUT_SEED:
        print("held-out seed: use this run only to confirm a claim made on other seeds")
    print(environment_line())
    run = Run(workload, args.seed)
    setups = measure_setup(run)
    metrics: dict = {}
    raw: dict = {}
    try:
        if args.trace:
            pairs, first_spans = run_traced(run, args.seconds)
            records = [p["record"] for p in pairs]
            if pairs:
                metrics = per_layer(pairs, setups, normalized=True)
                raw = per_layer(pairs, setups, normalized=False)
                write_spans(run, first_spans)
        else:
            trials = run_untraced(run, args.seconds)
            records = [record for _, _, record in trials]
            if trials:
                rss_mb = measure_peak_rss(run)
                metrics = end_to_end(run, trials, setups, True, rss_mb)
                raw = end_to_end(run, trials, setups, False, rss_mb)
    except MissingEntryPoint as exc:
        fail_setup(f"{exc}; update perfbench/spans.py to the program's new name")

    ref_median = statistics.median(run.refs)
    print(
        f"reference loop: median {ref_median:.6f} s, range {min(run.refs):.6f}-"
        f"{max(run.refs):.6f} s over {len(run.refs)} calls; nominal {NOMINAL_REF_S:.6f} s"
    )
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest[section]}
    if args.trace:
        print(ATTRIBUTION_NOTE)
    else:
        print(f"trials measured: {len(records)}")
        print_testpoint_metrics(run, trials)
    for name, unit in units.items():
        if name in metrics:
            print(
                f"metric {name} = {metrics[name]:.6g} {unit} "
                f"(raw {raw[name]:.6g}; reference median {ref_median:.6f} s)"
            )
    error_rate = run.failed_trials / run.attempted if run.attempted else 1.0
    print(
        f"metric error_rate = {error_rate:.6g} "
        f"({run.failed_trials} of {run.attempted} trials failed)"
    )
    print(f"digest first{DIGEST_TRIALS} = {digest(records[:DIGEST_TRIALS])}")
    print(f"digest all{len(records)} = {digest(records)}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        run.failures.append(f"metrics not measured: {missing}")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = not run.failures
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": max(run.failed_trials, 0 if correct else 1),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
