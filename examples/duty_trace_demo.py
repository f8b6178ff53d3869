#!/usr/bin/env python3
"""Figures 7 & 8 in your terminal: regulation dynamics, plotted.

Runs one MS Manners trial of the defragmenter/database experiment with
tracing enabled and renders, in ASCII:

* the defragmenter's execution duty over time (Figure 7) — watch it run
  freely, collapse to occasional probes while the database load runs, and
  resume after the suspension overshoot;
* its normalized progress rate (Figure 8) — the per-window noise that
  makes the statistical comparator necessary.

Run:  python examples/duty_trace_demo.py [--scale 0.5]
"""

from __future__ import annotations

import argparse

from repro.analysis.ascii_plot import timeseries_plot
from repro.apps.base import RegulationMode
from repro.experiments.scenarios import defrag_database_trial


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=4242)
    args = parser.parse_args()

    print(f"running the MS Manners trial with tracing (scale {args.scale})...\n")
    result = defrag_database_trial(
        RegulationMode.MS_MANNERS, seed=args.seed, scale=args.scale, with_traces=True
    )
    duty = result.extras["duty"]
    thread = result.extras["defrag_thread"]
    trace = result.extras["testpoints"]
    hi_start, hi_end = result.extras["hi_window"]
    end = result.li_time or hi_end + 400.0

    duty_series = duty.binned(thread, 0.0, end, max(end / 72.0, 1.0))
    print(
        timeseries_plot(
            duty_series,
            title=f"Figure 7: defragmenter duty "
            f"(database load runs {hi_start:.0f}s - {hi_end:.0f}s)",
            y_label="duty",
            x_label="s",
        )
    )
    print()
    progress_series = trace.normalized_progress(0.0, end, window=2.0)
    print(
        timeseries_plot(
            progress_series,
            title="Figure 8: normalized progress (1.0 = at target rate)",
            y_label="rate",
            x_label="s",
        )
    )
    print()
    print(
        f"defragmenter finished at t={result.li_time:.0f}s; database load took "
        f"{hi_end - hi_start:.0f}s."
    )
    print("note the overshoot: execution resumes well after the load ends —")
    print("the price of exponential backoff (bounded by the suspension cap).")


if __name__ == "__main__":
    main()
