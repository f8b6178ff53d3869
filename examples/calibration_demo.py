#!/usr/bin/env python3
"""Automatic target calibration from a worst-case start (Figure 10).

The defragmenter starts with no prior calibration, in the middle of a
burst of a sinusoidally modulated bursty disk load, with a live probation
period.  Watch the calibrating target duration fall from its inflated
initial value toward the ideal as idle-period samples accumulate — with no
manual tuning and no dedicated calibration run (section 4.3).

Run:  python examples/calibration_demo.py [--hours 6]
"""

from __future__ import annotations

import argparse

from repro.experiments.scenarios import calibration_trial


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()

    probation = args.hours / 4.0
    print(
        f"simulating {args.hours:.0f} hours (probation {probation:.1f} h, "
        f"diurnal cycle {args.hours / 2:.1f} h); paper runs 48 h / 24 h ...\n"
    )
    result = calibration_trial(
        seed=args.seed,
        hours=args.hours,
        probation_hours=probation,
        diurnal_hours=args.hours / 2.0,
        scale=0.4,
    )

    print(f"{'hour':>6} {'target duration':>16} {'defrag activity':>16}")
    print("-" * 42)
    activity = dict(result.activity)
    for hour, target in result.target_trajectory:
        act = activity.get(hour, 0.0)
        marker = " (probation)" if hour < probation else ""
        print(f"{hour:>6} {target:>15.3f}s {act:>15.1%}{marker}")

    print()
    print(f"initial target duration: {result.initial_target:.3f}s")
    print(f"final target duration:   {result.final_target:.3f}s")
    print(
        f"inflation at start:      "
        f"{result.initial_target / result.final_target:.2f}x "
        "(paper: 1600ms start vs ~480ms ideal = 3.3x over 48h)"
    )
    print(
        f"execution in idle time:  {result.execution_in_idle:.1%} "
        "(paper: 94% — regulation keeps the defragmenter out of the way"
    )
    print("even while its target is still calibrating)")


if __name__ == "__main__":
    main()
