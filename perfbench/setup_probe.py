"""Cold start of one workload in a fresh interpreter, and its peak memory.

Run as ``python3 setup_probe.py <workload> [--trials N --seed S]`` with
``repro`` importable.  It imports the workload's entry points, builds the
sign-test threshold tables (through the public ``SignTest`` constructor)
and then the workload's first regulator, and prints one JSON line with the
host seconds of each part.  ``fig5_idle`` runs unregulated, so it builds
neither.

With ``--trials N`` it then runs the workload's trials ``S .. S+N-1`` and
adds ``peak_rss_mb``, the interpreter's peak resident memory: the
program's own footprint, with none of the benchmark's reference loop.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def cold_start(workload: str) -> dict:
    start = time.perf_counter()
    if workload == "testpoint_loop":
        from repro.core.config import DEFAULT_CONFIG as config
        from repro.core.signtest import SignTest
        from repro.core.superintendent import Superintendent
        from repro.core.supervisor import Supervisor
    elif workload in ("fig3_contended", "fig5_idle"):
        from repro.core.controller import ThreadRegulator
        from repro.core.signtest import SignTest
        from repro.experiments.scenarios import EXPERIMENT_CONFIG as config
        from repro.experiments.scenarios import measured_trial  # noqa: F401
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    imported = time.perf_counter()
    tables = 0.0
    if workload != "fig5_idle":
        SignTest(alpha=config.alpha, beta=config.beta, max_samples=config.max_sign_samples)
        tables = time.perf_counter() - imported
        if workload == "testpoint_loop":
            sup = Supervisor(config, superintendent=Superintendent(config.usage_decay))
            sup.register_thread("t0")
        else:
            ThreadRegulator(config)
    end = time.perf_counter()
    return {
        "setup_s": end - start,
        "import_s": imported - start,
        "signtest_tables_s": tables,
    }


def peak_rss_mb(workload: str, seed: int, trials: int) -> float:
    """Run ``trials`` trials from ``seed``; return the peak resident MB since start."""
    from spans import Probe
    from workloads import WORKLOADS

    with Probe(trace=False) as probe:
        for i in range(trials):
            WORKLOADS[workload].run_trial(seed + i, probe)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--trials", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    result = cold_start(args.workload)
    if args.trials:
        result["peak_rss_mb"] = peak_rss_mb(args.workload, args.seed, args.trials)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
