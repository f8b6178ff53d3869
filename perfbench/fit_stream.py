#!/usr/bin/env python3
"""Fit testpoint_loop's step model to the defragmenter of the Fig 3 scenario.

Usage, from the root of the repo::

    PYTHONPATH=src python3 perfbench/fit_stream.py [--seeds 8]

It runs ``defrag_database_trial`` in ``MS Manners`` mode at the
benchmark's scale for seeds ``1..N`` and records every testpoint of the
defragmenter (``Supervisor.on_testpoint``: time and cumulative blocks
moved) and every release of its thread (``Kernel.deliver`` of a
regulation decision).  One step is a release followed by the next
testpoint: one file relocation.  It prints:

* ``blocks``: the range of blocks moved per step;
* ``base_s``, ``per_block_s``: the least-squares line work = base +
  per_block * blocks over the steps that start outside the database load;
* ``sigma``: the standard deviation of log(work / line) over those steps;
* ``slowdown``: the median of work / line over the steps that start
  inside the database load;
* ``solo_s``: when the database load starts, and ``episode_s``: the range
  of its length (``hi_window``) over the seeds.

``workloads.py`` rounds these into the ``TP_*`` constants.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


@contextlib.contextmanager
def _recording(log: list):
    """Log ``("tp", now, blocks)`` and ``("rel", now)`` for regulated threads."""
    from repro.core.supervisor import Supervisor
    from repro.simos.kernel import Kernel

    on_testpoint = Supervisor.__dict__["on_testpoint"]
    deliver = Kernel.__dict__["deliver"]

    def testpoint(sup, now, thread, index, metrics):
        log.append(("tp", now, metrics[0]))
        return on_testpoint(sup, now, thread, index, metrics)

    def release(kernel, thread, value):
        if hasattr(value, "processed"):  # a regulation decision
            log.append(("rel", kernel.now))
        return deliver(kernel, thread, value)

    Supervisor.on_testpoint = testpoint
    Kernel.deliver = release
    try:
        yield
    finally:
        Supervisor.on_testpoint = on_testpoint
        Kernel.deliver = deliver


def trial_steps(seed: int, scale: float) -> tuple[list[tuple[float, float, bool]], tuple]:
    """One Fig 3 trial: ``[(work s, blocks, inside the load)]`` and the load window."""
    from repro.experiments.scenarios import RegulationMode, defrag_database_trial

    log: list = []
    with _recording(log):
        result = defrag_database_trial(RegulationMode.MS_MANNERS, seed, scale=scale)
    start, end = result.extras["hi_window"]
    steps = []
    release = 0.0
    moved = 0.0
    for entry in log:
        if entry[0] == "rel":
            release = entry[1]
            continue
        _, now, blocks = entry
        steps.append((now - release, blocks - moved, start <= release < end))
        moved = blocks
    return steps, (start, end)


def fit(seeds, scale: float) -> dict:
    """The step model over the given Fig 3 trials."""
    steps: list = []
    windows = []
    for seed in seeds:
        trial, window = trial_steps(seed, scale)
        steps.extend(trial)
        windows.append(window)
    solo = [(w, b) for w, b, inside in steps if not inside]
    xs = [b for _, b in solo]
    ys = [w for w, _ in solo]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    per_block = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    base = my - per_block * mx

    def line(blocks: float) -> float:
        return base + per_block * blocks

    blocks = [b for _, b, _ in steps]
    return {
        "steps": len(steps),
        "steps_in_load": sum(1 for *_, inside in steps if inside),
        "blocks": [min(blocks), max(blocks)],
        "base_s": base,
        "per_block_s": per_block,
        "sigma": statistics.stdev(math.log(w / line(b)) for w, b in solo),
        "slowdown": statistics.median(w / line(b) for w, b, inside in steps if inside),
        "solo_s": statistics.median(start for start, _ in windows),
        "episode_s": [min(e - s for s, e in windows), max(e - s for s, e in windows)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=8)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from workloads import FIG_SCALE

    print(json.dumps(fit(range(1, args.seeds + 1), FIG_SCALE), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
