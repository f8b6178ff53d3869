#!/usr/bin/env python3
"""Quickstart: regulate a real low-importance Python thread.

This is the paper's deployment story in miniature, on your actual machine
(wall-clock time, real threads, standard library only):

1. a *low-importance* worker chews through a batch job, calling
   ``testpoint()`` with its cumulative progress after every item — the one
   integration point MS Manners asks of an application (section 7.1);
2. midway, a *high-importance* burst arrives and contends for the same
   bottleneck; the worker's progress rate drops; the regulator notices
   (paired-sample sign test) and suspends the worker with exponential
   backoff;
3. the burst ends, a probe succeeds, and the worker resumes full speed.

The "resource" here is a token-bucket standing in for a disk/CPU/network
bottleneck so the demo is deterministic and fast; with a real workload you
simply drop the same ``testpoint()`` call into your loop.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import threading
import time

from repro.core.config import MannersConfig
from repro.core.library import Manners


class Bottleneck:
    """A token-bucket shared resource (~400 ops/s capacity)."""

    def __init__(self, rate: float = 400.0) -> None:
        self._rate = rate
        self._lock = threading.Lock()
        self._available = 1.0
        self._last = time.monotonic()

    def use(self, amount: float = 1.0) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._available = min(
                    self._available + (now - self._last) * self._rate, self._rate / 10
                )
                self._last = now
                if self._available >= amount:
                    self._available -= amount
                    return
            time.sleep(0.001)


def main() -> None:
    bottleneck = Bottleneck()
    config = MannersConfig(
        bootstrap_testpoints=20,
        probation_period=0.0,
        averaging_n=200,
        min_testpoint_interval=0.05,
        initial_suspension=0.25,
        max_suspension=4.0,
    )
    manners = Manners(config)

    hi_active = threading.Event()
    hi_done_items = [0]

    def high_importance_burst() -> None:
        time.sleep(2.0)
        hi_active.set()
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            # Symmetric contention (the paper's core assumption): the
            # high-importance consumer draws the same unit operations.
            bottleneck.use(1.0)
            hi_done_items[0] += 1
        hi_active.clear()

    burst = threading.Thread(target=high_importance_burst)
    burst.start()

    done = 0
    suspended_total = 0.0
    start = time.monotonic()
    print("low-importance worker starting (high-importance burst at t=2s)...")
    last_report = 0.0
    while time.monotonic() - start < 8.0:
        bottleneck.use(1.0)  # one item of low-importance work
        done += 1
        pause = manners.testpoint([done])
        if pause > 0.0:
            suspended_total += pause
            print(
                f"  t={time.monotonic() - start:5.2f}s  progress judged poor -> "
                f"suspending {pause:.2f}s (HI active: {hi_active.is_set()})"
            )
            time.sleep(pause)
        t = time.monotonic() - start
        if t - last_report >= 1.0:
            print(f"  t={t:5.2f}s  items done: {done}")
            last_report = t

    burst.join()
    stats = manners.regulator.stats
    print()
    print(f"worker items completed:        {done}")
    print(f"high-importance items:         {hi_done_items[0]}")
    print(f"total suspension imposed:      {suspended_total:.2f}s")
    print(
        f"judgments: {stats.good_judgments} good, {stats.poor_judgments} poor, "
        f"{stats.indeterminate} indeterminate"
    )
    print("the worker deferred during the burst and resumed afterwards.")


if __name__ == "__main__":
    main()
