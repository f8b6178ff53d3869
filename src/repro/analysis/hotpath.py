"""Event-core hot-path microbenchmarks (shared by pytest and ``repro bench``).

The simulator's inner loop is ``post_after`` → event store → dispatch
(docs/performance.md).  This module drives that loop directly — no kernel,
no devices — so its throughput numbers isolate the event core itself.
Every workload runs against a named core from
:data:`repro.simos.kernel.ENGINE_CORES` (binary heap or hierarchical
timing wheel), and each report compares the two side by side:

* **post chain** (``engine_hotpath``) — the allocation-free steady-state
  path: each fired event posts the next with ``post_after``.  A single
  sparse chain keeps the store tiny, which is the heap's best case.
* **call chain** — the same chain through ``call_after``, measuring the
  cancellable-handle overhead (the rare path).
* **cancel churn** — schedule-and-cancel bursts shaped like a long
  regulator suspension, exercising handle cancellation and threshold
  compaction.  ``rounds``/``burst`` are the churn knobs ``repro bench
  engine_hotpath --churn`` exposes.
* **dense fleet** (``engine_wheel``) — thousands of concurrent timer
  chains, the fleet-simulation regime where the store holds thousands of
  live timers at once.  Here the heap pays ``O(log n)`` per op while the
  wheel's slot insert/drain stays ``O(1)``; this report's headline is the
  wheel's throughput, with the heap on the identical workload alongside.
* **sparse chains** (``engine_sparse``) — a handful of live timer
  chains, the near-idle regime that used to be the wheel's worst case
  (per-event slot bookkeeping on a near-empty wheel).  The report guards
  the opt-in wheel's sparse regime: its throughput must stay within the
  CI band of its committed baseline, with the heap (the default core) on
  the identical workload alongside.

Every run re-checks the optimization's correctness guards: the O(1)
``pending`` counter must equal a full store scan, and compaction must
have bounded the churn store.  A fast-but-wrong engine fails here, not
in CI.
"""

from __future__ import annotations

import time

__all__ = [
    "live_entries",
    "stored_entries",
    "run_engine_hotpath",
    "run_dense_fleet",
    "run_sparse_chains",
    "engine_hotpath_report",
    "engine_wheel_report",
    "engine_sparse_report",
]


def live_entries(engine) -> int:
    """Count live stored events the slow way, for either core.

    Heap cores scan ``_heap``; wheel cores walk every band via
    ``_entries()``.  Either way: plain posts plus uncancelled handles.
    """
    heap = getattr(engine, "_heap", None)
    entries = heap if heap is not None else engine._entries()
    return sum(1 for h in entries if h.__class__ is tuple or not h.cancelled)


def stored_entries(engine) -> int:
    """Total stored entries (live + stale), for either core."""
    heap = getattr(engine, "_heap", None)
    if heap is not None:
        return len(heap)
    return sum(1 for _ in engine._entries())


def _make(engine_core: str):
    from repro.simos.kernel import make_engine

    return make_engine(engine_core)


def _run_post_chain(events: int, engine_core: str = "heap"):
    """Fire a chain of handle-free posts: the steady-state dispatch path."""
    engine = _make(engine_core)
    post_after = engine.post_after

    def tick(n):
        if n > 0:
            post_after(1.0, tick, n - 1)

    engine.post_at(0.0, tick, events - 1)
    engine.run()
    return engine


def _run_call_chain(events: int, engine_core: str = "heap"):
    """The same chain through cancellable handles (the rare path)."""
    engine = _make(engine_core)

    def tick(n):
        if n > 0:
            engine.call_after(1.0, tick, n - 1)

    engine.call_at(0.0, tick, events - 1)
    engine.run()
    return engine


def _run_cancel_churn(rounds: int, burst: int, engine_core: str = "heap"):
    """Schedule-and-cancel churn shaped like regulator suspensions.

    Each round schedules ``burst`` timers, cancels all but one, and lets
    the survivor fire — cancelled entries continuously dominate fresh
    pushes, so the engine's threshold compaction path runs many times.
    """
    engine = _make(engine_core)
    for _ in range(rounds):
        handles = [engine.call_after(float(i + 1), lambda: None) for i in range(burst)]
        for handle in handles[1:]:
            handle.cancel()
        engine.step()
    return engine


def run_dense_fleet(
    chains: int = 4096, hops: int = 96, engine_core: str = "heap", delay: float = 1.0
) -> float:
    """Run ``chains`` concurrent timer chains; return events/s.

    All chains start together and re-arm with the same ``delay``, so the
    store holds ``chains`` live timers for the whole run — the regime a
    fleet of simulated machines produces, and the one the timing wheel
    is built for.
    """
    engine = _make(engine_core)
    post_after = engine.post_after

    def tick(n):
        if n:
            post_after(delay, tick, n - 1)

    for _ in range(chains):
        post_after(0.001, tick, hops)
    events = chains * (hops + 1)
    start = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - start
    assert engine.events_fired == events
    assert engine.pending == 0
    return events / wall


def run_sparse_chains(
    chains: int = 2,
    hops: int = 50_000,
    engine_core: str = "wheel",
    delay: float = 0.05,
) -> float:
    """Run a near-idle workload of ``chains`` timer chains; return events/s.

    With only a couple of live timers the store never grows, so all the
    cost is per-event machinery: heap push/pop for the heap core, the
    ready-band sparse bypass for the wheel.  This is the workload that
    regressed before the bypass existed and the one the CI gate holds the
    opt-in wheel to.
    """
    engine = _make(engine_core)
    post_after = engine.post_after

    def tick(n):
        if n:
            post_after(delay, tick, n - 1)

    for _ in range(chains):
        post_after(delay, tick, hops)
    events = chains * (hops + 1)
    start = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - start
    assert engine.events_fired == events
    assert engine.pending == 0
    return events / wall


def run_engine_hotpath(
    events: int = 30_000,
    rounds: int = 2_000,
    burst: int = 40,
    engine_core: str = "heap",
) -> dict[str, float]:
    """Run the three chain/churn workloads; return throughput stats.

    Raises ``AssertionError`` if any correctness guard fails — the
    counters and compaction must be invisible except for speed.
    """
    start = time.perf_counter()
    posted = _run_post_chain(events, engine_core)
    post_wall = time.perf_counter() - start

    start = time.perf_counter()
    called = _run_call_chain(events, engine_core)
    call_wall = time.perf_counter() - start

    start = time.perf_counter()
    churn = _run_cancel_churn(rounds, burst, engine_core)
    churn_wall = time.perf_counter() - start
    ops = rounds * burst  # schedules; most are then cancelled

    assert posted.events_fired == events
    assert called.events_fired == events
    assert churn.events_fired == rounds
    # The O(1) counter must agree with a full scan after all that churn.
    for engine in (posted, called, churn):
        assert engine.pending == live_entries(engine)
    # Compaction must have kept the store from retaining the churn.
    assert stored_entries(churn) < ops / 4

    return {
        "post_events_per_sec": events / post_wall,
        "call_events_per_sec": events / call_wall,
        "churn_ops_per_sec": ops / churn_wall,
        "stored_churn_entries": float(stored_entries(churn)),
        "wall_time_s": post_wall + call_wall + churn_wall,
    }


def engine_hotpath_report(
    events: int = 200_000, rounds: int = 4_000, burst: int = 40, repeats: int = 3
) -> dict:
    """Best-of-``repeats`` stats as a ``BENCH_engine_hotpath.json`` payload.

    ``events_per_sec`` (the key the CI perf gate compares) is the heap
    core's post chain — the allocation-free path steady-state simulation
    dispatches through.  The wheel core runs the identical workloads and
    its numbers ride along (``wheel_*``) so both cores stay visible in
    one report; the wheel's own gated headline is ``engine_wheel``.
    """
    from repro.analysis.parallel import code_fingerprint

    best: dict[str, float] = {}
    wall = 0.0
    for _ in range(max(1, repeats)):
        for core in ("heap", "wheel"):
            stats = run_engine_hotpath(
                events=events, rounds=rounds, burst=burst, engine_core=core
            )
            wall += stats["wall_time_s"]
            prefix = "" if core == "heap" else "wheel_"
            for key, value in stats.items():
                if key in ("stored_churn_entries", "wall_time_s"):
                    continue
                name = prefix + key
                best[name] = max(best.get(name, 0.0), value)
    return {
        "name": "engine_hotpath",
        "kind": "micro",
        "events": events,
        "rounds": rounds,
        "burst": burst,
        "repeats": repeats,
        "events_per_sec": round(best["post_events_per_sec"]),
        "post_events_per_sec": round(best["post_events_per_sec"]),
        "call_events_per_sec": round(best["call_events_per_sec"]),
        "churn_ops_per_sec": round(best["churn_ops_per_sec"]),
        "wheel_post_events_per_sec": round(best["wheel_post_events_per_sec"]),
        "wheel_call_events_per_sec": round(best["wheel_call_events_per_sec"]),
        "wheel_churn_ops_per_sec": round(best["wheel_churn_ops_per_sec"]),
        "wall_time_s": round(wall, 4),
        "code_fingerprint": code_fingerprint(),
    }


def engine_wheel_report(
    chains: int = 4096, hops: int = 96, repeats: int = 5
) -> dict:
    """Dense-fleet throughput, wheel vs heap, as ``BENCH_engine_wheel.json``.

    ``events_per_sec`` is the wheel core on the dense workload — the
    number the CI perf gate holds against the committed baseline.  The
    heap runs the identical workload for the side-by-side
    ``speedup_vs_heap`` (the heap gets fewer repeats; it is the slow
    reference, not the gated subject).
    """
    from repro.analysis.parallel import code_fingerprint

    start = time.perf_counter()
    wheel = max(
        run_dense_fleet(chains, hops, "wheel") for _ in range(max(1, repeats))
    )
    heap = max(
        run_dense_fleet(chains, hops, "heap")
        for _ in range(max(1, min(repeats, 3)))
    )
    wall = time.perf_counter() - start
    return {
        "name": "engine_wheel",
        "kind": "micro",
        "chains": chains,
        "hops": hops,
        "repeats": repeats,
        "events_per_sec": round(wheel),
        "heap_events_per_sec": round(heap),
        "speedup_vs_heap": round(wheel / heap, 2),
        "wall_time_s": round(wall, 4),
        "code_fingerprint": code_fingerprint(),
    }


def engine_sparse_report(
    chains: int = 2, hops: int = 100_000, repeats: int = 3
) -> dict:
    """Sparse-chain throughput, wheel vs heap, as ``BENCH_engine_sparse.json``.

    ``events_per_sec`` is the wheel core (opt-in, ``REPRO_ENGINE=wheel``)
    on the near-idle workload — the number the CI perf gate holds against
    the committed baseline so the wheel cannot silently regress the
    sparse regime while it is kept.  The heap, the default core, runs the
    identical workload and rides along as ``heap_events_per_sec`` with the
    ``vs_heap`` ratio.
    """
    from repro.analysis.parallel import code_fingerprint

    start = time.perf_counter()
    wheel = max(
        run_sparse_chains(chains, hops, "wheel") for _ in range(max(1, repeats))
    )
    heap = max(
        run_sparse_chains(chains, hops, "heap") for _ in range(max(1, repeats))
    )
    wall = time.perf_counter() - start
    return {
        "name": "engine_sparse",
        "kind": "micro",
        "chains": chains,
        "hops": hops,
        "repeats": repeats,
        "events_per_sec": round(wheel),
        "heap_events_per_sec": round(heap),
        "vs_heap": round(wheel / heap, 2),
        "wall_time_s": round(wall, 4),
        "code_fingerprint": code_fingerprint(),
    }
