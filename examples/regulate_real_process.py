#!/usr/bin/env python3
"""Regulate a real, unmodified OS process — BeNice with SIGSTOP.

This demo spawns an actual child process that chews through a batch job
and publishes a cumulative progress counter to a JSON file (its only
concession to observability — exactly the role Windows performance
counters play in the paper's BeNice, section 7.2).  `PosixBeNice` polls
the counter, runs the full MS Manners pipeline on it, and enforces
suspensions with SIGSTOP/SIGCONT.

Midway we inflict "contention" on the worker (it slows 10x, as it would
when a high-importance process competes for its bottleneck).  Watch the
regulator notice the progress collapse and freeze the worker with
exponentially growing suspensions; when the contention ends, a probe
succeeds and the worker runs free again.

Run:  python examples/regulate_real_process.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.config import MannersConfig
from repro.realtime.posix_benice import JsonFileCounters, PosixBeNice

WORKER = r"""
import json, os, sys, time
counter_path, marker_path = sys.argv[1], sys.argv[2]
done = 0
while True:
    time.sleep(0.05 if os.path.exists(marker_path) else 0.005)
    done += 1
    tmp = counter_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"items": done}, f)
    os.replace(tmp, counter_path)
"""


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="manners-demo-"))
    counter = workdir / "progress.json"
    marker = workdir / "contention.marker"

    worker = subprocess.Popen([sys.executable, "-c", WORKER, str(counter), str(marker)])
    print(f"spawned unmodified worker (pid {worker.pid}); it only writes {counter.name}")

    config = MannersConfig(
        bootstrap_testpoints=8,
        probation_period=0.0,
        averaging_n=60,
        min_testpoint_interval=0.01,
        initial_suspension=0.25,
        max_suspension=2.0,
        hung_threshold=10.0,
    )
    benice = PosixBeNice(worker.pid, JsonFileCounters(counter, ["items"]), config=config)

    def items() -> int:
        try:
            return json.loads(counter.read_text())["items"]
        except Exception:
            return 0

    try:
        with benice:
            print("\ncalibrating at full speed...")
            time.sleep(2.5)
            print(f"  items: {items()}   suspensions: {benice.stats.suspensions}")

            print("\ncontention begins (worker slows 10x)...")
            marker.write_text("contention")
            for _ in range(3):
                time.sleep(1.5)
                print(
                    f"  items: {items():5d}   suspensions: {benice.stats.suspensions}"
                    f"   frozen time: {benice.stats.total_suspension_time:.1f}s"
                )

            print("\ncontention ends...")
            marker.unlink()
            time.sleep(2.5)
            rate_probe_start = items()
            time.sleep(1.0)
            print(
                f"  items: {items()}   rate: {items() - rate_probe_start}/s "
                f"(full speed again)"
            )
        print("\nregulator stopped; worker resumed and untouched.")
    finally:
        worker.kill()
        worker.wait()


if __name__ == "__main__":
    main()
