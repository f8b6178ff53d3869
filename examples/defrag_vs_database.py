#!/usr/bin/env python3
"""The paper's first experiment (Figure 3): defragmenter vs SQL Server.

Runs one trial per configuration of the simulated experiment behind
Figure 3 — a disk defragmenter (low importance) sharing a disk with a
database bulk load (high importance) — and prints the database's run time
under each regime, next to the paper's numbers.

Run:  python examples/defrag_vs_database.py [--scale 0.5]
"""

from __future__ import annotations

import argparse

from repro.apps.base import RegulationMode
from repro.experiments.scenarios import defrag_database_trial

PAPER = {
    RegulationMode.NOT_RUNNING: (300.0, "the control"),
    RegulationMode.UNREGULATED: (570.0, "+90%: contention"),
    RegulationMode.CPU_PRIORITY: (570.0, "no appreciable difference"),
    RegulationMode.MS_MANNERS: (321.0, "+7%: order-of-magnitude reduction"),
    RegulationMode.BENICE: (321.0, "external regulation, same effect"),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", type=float, default=0.5,
        help="workload scale (1.0 = paper-magnitude ~300s database load)",
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print(f"running one trial per configuration at scale {args.scale} ...\n")
    print(f"{'configuration':<16} {'DB time':>9} {'defrag time':>12}   paper (300s base)")
    print("-" * 78)
    base = None
    for mode in PAPER:
        result = defrag_database_trial(mode, seed=args.seed, scale=args.scale)
        if base is None and mode is RegulationMode.NOT_RUNNING:
            base = result.hi_time
        rel = f"({result.hi_time / base:4.2f}x)" if base else ""
        li = f"{result.li_time:10.1f}s" if result.li_time else f"{'—':>11}"
        paper_time, note = PAPER[mode]
        print(
            f"{mode.value:<16} {result.hi_time:8.1f}s {li} {rel:>8}   "
            f"~{paper_time:.0f}s — {note}"
        )
    print()
    print("shape check: unregulated roughly doubles the database time; CPU")
    print("priority does not help (the contention is on the disk); MS Manners")
    print("and BeNice keep the database within a few percent of baseline.")


if __name__ == "__main__":
    main()
