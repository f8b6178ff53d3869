#!/usr/bin/env python3
"""The CI perf gate: paired perfbench runs of a parent and a change checkout.

Usage::

    python3 benchmarks/paired_gate.py PARENT_CHECKOUT CHANGE_CHECKOUT

For every workload in the parent's ``BENCHMARK.json`` it runs the
benchmark's command (``perfbench/run.py``) in both checkouts, in
:data:`PAIRS` pairs that alternate which side runs first, each run
:data:`SECONDS` long on seed :data:`SEED`.  Each run's standard output is
kept under ``perf-gate/`` in the current directory.

The change fails the gate when, on any workload:

* an end-to-end metric's median is worse than the parent's by more than
  that metric's ``BENCHMARK.json`` bound;
* ``trials_per_s`` is worse in at least nine tenths of the pairs (ties
  count for neither) and its medians are apart, in the bad direction, by
  more than the distance between the parent runs' quartiles;
* a change run reports ``correct: false``, or the change fails a larger
  share of its attempted trials than the parent.

Directions and bounds come from the parent's ``BENCHMARK.json``, so the
change under test cannot loosen them.

Every end-to-end metric's report line also counts the pairs in which the
change was worse.  Only the headline's count is judged; the others are a
report, which shows, for example, a rate that moved while the median
trial time did not.
For each workload it also reports, without judging, whether every pair's
parent and change printed the same ``digest first4`` line: equal digests
mean the same simulation, and a deliberate model change moves them.  Exit codes: 0 pass, 1 fail, 2 when
perfbench could not run in a checkout (no result line; its stderr is
printed).  docs/performance.md records how the constants below were sized.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Parent/change pairs per workload.
PAIRS = 12
#: Measured seconds per perfbench run.
SECONDS = 15
#: Trial seed of every run; never perfbench's held-out seed 7919.
SEED = 1
#: The metric judged pair by pair, as well as by its bound.
HEADLINE = "trials_per_s"
#: Share of pairs the headline must lose in before a loss counts.
LOSING_SHARE = 0.9
#: Where each run's standard output is kept, relative to the current directory.
OUT = Path("perf-gate")
#: perfbench's fixed-prefix digest line: a hash of its first four trials.
DIGEST = "digest first4"


def run_once(manifest: dict, checkout: Path, workload: str, log: Path) -> dict:
    """One perfbench run in ``checkout``: its JSON result line.

    The run's standard output is written to ``log``.  A run that prints
    no result line (perfbench exits 2 when it cannot run) ends the gate
    with exit code 2.
    """
    done = subprocess.run(
        [*manifest["command"], "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(done.stdout + done.stderr, encoding="utf-8")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(
            f"error: perfbench printed no result in {checkout} "
            f"(exit {done.returncode}): {done.stderr.strip()[-400:]}",
            file=sys.stderr,
        )
        raise SystemExit(2) from None
    result[DIGEST] = first_digest(done.stdout)
    return result


def first_digest(stdout: str) -> str | None:
    """The value of perfbench's ``digest first4 = ...`` line, or ``None``."""
    prefix = DIGEST + " = "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def digest_line(pairs: list[tuple[dict, dict]]) -> str:
    """Report whether each pair's parent and change ran the same simulation."""
    same = sum(
        parent.get(DIGEST) is not None and parent.get(DIGEST) == change.get(DIGEST)
        for parent, change in pairs
    )
    verdict = "identical" if same == len(pairs) else "differs"
    return f"{DIGEST:<17} same in {same} of {len(pairs)} pairs ({verdict})"


def worse_by(better: str, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a fraction of it."""
    if better == "higher":
        return (parent - change) / parent
    return (change - parent) / parent


def judge(manifest: dict, pairs: list[tuple[dict, dict]]) -> tuple[list[str], list[str]]:
    """Judge one workload's ``(parent result, change result)`` pairs.

    Returns ``(report lines, failures)``; an empty failure list is a pass.
    The last report line is :func:`digest_line`, which never fails.
    """
    lines: list[str] = []
    failures: list[str] = []
    if not all(change["correct"] for _, change in pairs):
        failures.append("a change run failed its output checks (correct: false)")
    shares = []
    for side in (0, 1):
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        failed = sum(pair[side]["failed"] for pair in pairs)
        shares.append(failed / attempted if attempted else 1.0)
    if shares[1] > shares[0]:
        failures.append(
            f"the change failed {shares[1]:.2%} of its trials, the parent {shares[0]:.2%}"
        )

    for metric in manifest["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        values = [
            (pair[0]["metrics"][name]["value"], pair[1]["metrics"][name]["value"])
            for pair in pairs
            if name in pair[0]["metrics"] and name in pair[1]["metrics"]
        ]
        if len(values) < len(pairs):
            missing = len(pairs) - len(values)
            failures.append(f"{name}: missing from {missing} of {len(pairs)} pairs")
            continue
        p1, parent, p3 = statistics.quantiles([v[0] for v in values], n=4, method="inclusive")
        c1, change, c3 = statistics.quantiles([v[1] for v in values], n=4, method="inclusive")
        worse = worse_by(better, parent, change)
        losses = sum(worse_by(better, *pair) > 0 for pair in values)
        lines.append(
            f"{name:<17} parent {parent:.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {change:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"worse by {worse:+.2%} (bound {bound:.0%}), "
            f"worse in {losses} of {len(pairs)} pairs"
        )
        if worse > bound:
            failures.append(f"{name}: median worse by {worse:.2%}, beyond its bound {bound:.0%}")
        if (
            name == HEADLINE
            and losses >= LOSING_SHARE * len(pairs)
            and worse > 0
            and abs(change - parent) > p3 - p1
        ):
            failures.append(
                f"{name}: worse in {losses} of {len(pairs)} pairs, medians "
                f"{abs(change - parent):.4g} apart, parent IQR {p3 - p1:.4g}"
            )
    lines.append(digest_line(pairs))
    return lines, failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(
            "usage: python3 benchmarks/paired_gate.py PARENT_CHECKOUT CHANGE_CHECKOUT",
            file=sys.stderr,
        )
        return 2
    parent_dir, change_dir = (Path(arg).resolve() for arg in argv)
    manifest = json.loads((parent_dir / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for workload in (w["name"] for w in manifest["workloads"]):
        pairs = []
        for i in range(PAIRS):
            sides = [("parent", parent_dir), ("change", change_dir)]
            if i % 2:
                sides.reverse()
            results = {
                side: run_once(
                    manifest, checkout, workload, OUT / workload / f"{i:02d}-{side}.txt"
                )
                for side, checkout in sides
            }
            pairs.append((results["parent"], results["change"]))
        lines, failures = judge(manifest, pairs)
        print(f"{workload}: {PAIRS} pairs of {SECONDS} s runs, seed {SEED}")
        for line in lines:
            print(f"  {line}")
        for failure in failures:
            print(f"  FAIL {failure}")
        print(f"  {'FAIL' if failures else 'pass'} {workload}")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
