#!/usr/bin/env python3
"""BeNice: regulate an *unmodified* application from the outside.

The defragmenter here never calls a testpoint function.  It only publishes
two performance counters (blocks moved, move operations) — the standard
export mechanism long-running utilities already use.  BeNice polls those
counters at an adaptive interval, feeds them to the MS Manners engine, and
enforces suspensions through the kernel's debug interface, exactly as the
paper's BeNice does with ``SuspendThread`` (section 7.2).

Run:  python examples/benice_external.py
"""

from __future__ import annotations

import random

from repro.apps.defragmenter import Defragmenter
from repro.apps.dummyload import DiskHog
from repro.benice.benice import BeNice
from repro.core.config import MannersConfig
from repro.simos.filesystem import Volume, populate_volume
from repro.simos.kernel import Kernel
from repro.simos.perfcounters import PerfCounterRegistry
from repro.simos.workload import Burst


def main() -> None:
    kernel = Kernel(seed=3)
    kernel.add_disk("C")
    volume = Volume("C", "C", total_blocks=300_000)
    rng = random.Random(3)
    populate_volume(
        volume, rng, file_count=900,
        size_range=(32 * 1024, 256 * 1024), fragment_range=(2, 6),
    )
    registry = PerfCounterRegistry()

    # The unmodified application: publishes counters, knows nothing of
    # regulation.
    defrag = Defragmenter(kernel, [volume], registry=registry)
    threads = defrag.spawn()

    # High-importance activity arrives in two bursts.
    bursts = [Burst(20.0, 50.0), Burst(90.0, 120.0)]
    DiskHog(kernel, "C", bursts, seed=17).spawn()

    config = MannersConfig(
        bootstrap_testpoints=16,
        probation_period=0.0,
        averaging_n=400,
        min_testpoint_interval=0.1,
        initial_suspension=1.0,
        max_suspension=64.0,
    )
    benice = BeNice(
        kernel,
        registry,
        target_process="defrag",
        counter_names=("C.blocks_moved", "C.move_ops"),
        target_threads=threads,
        config=config,
    )
    benice.spawn()

    print("running: unmodified defragmenter + BeNice + bursty HI disk load\n")
    for checkpoint in (20, 50, 90, 120, 200, 400, 800):
        kernel.run(until=float(checkpoint))
        moved = registry.read("defrag", "C.move_ops")
        print(
            f"  t={kernel.now:6.1f}s  move ops: {moved:6.0f}   "
            f"polls: {benice.stats.polls:4d}   "
            f"suspensions: {benice.stats.suspensions:3d}   "
            f"poll interval: {benice.stats.final_interval or benice._poller.interval:.2f}s"
        )
        if defrag.results["C"].elapsed is not None:
            break
    kernel.run(until=4000.0)

    result = defrag.results["C"]
    print()
    print(f"defragmentation finished in {result.elapsed:.1f}s")
    print(
        f"BeNice: {benice.stats.polls} polls, {benice.stats.suspensions} "
        f"suspensions totalling {benice.stats.total_suspension_time:.1f}s"
    )
    print(
        f"{benice.stats.polls_without_progress} polls saw no counter change "
        "(the adaptive interval tracks the update rate)"
    )
    print("\nno application changes were required — only published counters.")


if __name__ == "__main__":
    main()
