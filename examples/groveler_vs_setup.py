#!/usr/bin/env python3
"""The paper's second experiment (Figure 4): SIS Groveler vs Office Setup.

The Groveler (low importance) scans a volume holding two identical
directory trees, reading file contents and merging duplicates; thirty
seconds in, an Office-style installation (high importance) begins copying
from a CD-ROM onto the same disk.

Run:  python examples/groveler_vs_setup.py [--scale 0.5]
"""

from __future__ import annotations

import argparse

from repro.apps.base import RegulationMode
from repro.experiments.scenarios import groveler_setup_trial

PAPER = {
    RegulationMode.NOT_RUNNING: (250.0, "the control"),
    RegulationMode.UNREGULATED: (475.0, "+90%: contention"),
    RegulationMode.CPU_PRIORITY: (475.0, "no appreciable difference"),
    RegulationMode.MS_MANNERS: (280.0, "+12%: nearly an order of magnitude"),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print(f"running one trial per configuration at scale {args.scale} ...\n")
    print(f"{'configuration':<16} {'Setup time':>11} {'Groveler time':>14}   paper (250s base)")
    print("-" * 80)
    base = None
    for mode in PAPER:
        result = groveler_setup_trial(mode, seed=args.seed, scale=args.scale)
        if base is None and mode is RegulationMode.NOT_RUNNING:
            base = result.hi_time
        rel = f"({result.hi_time / base:4.2f}x)" if base else ""
        li = f"{result.li_time:12.1f}s" if result.li_time else f"{'—':>13}"
        paper_time, note = PAPER[mode]
        print(
            f"{mode.value:<16} {result.hi_time:10.1f}s {li} {rel:>8}   "
            f"~{paper_time:.0f}s — {note}"
        )
        if mode is RegulationMode.MS_MANNERS and "groveler_stats" in result.extras:
            stats = result.extras["groveler_stats"]
            print(
                f"{'':16} (groveled {stats.files_groveled} files, merged "
                f"{stats.duplicates_merged} duplicates, reclaimed "
                f"{stats.blocks_reclaimed} blocks)"
            )
    print()
    print("the regulated Groveler defers to Setup and pays for it afterwards")
    print("with suspension overshoot — the Figure 6 trade-off.")


if __name__ == "__main__":
    main()
