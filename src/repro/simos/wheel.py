"""Hierarchical timing-wheel event core (the calendar-queue engine).

:class:`WheelEngine` is a drop-in alternative to the binary-heap
:class:`~repro.simos.engine.Engine` with the same scheduling API
(``post_at``/``post_after``/``call_at``/``call_after``), the same
``run``/``step``/``drain`` contract, the same derived-counter accounting,
and the same ``_monitored`` stepped path for the verify monitors — but
with O(1) post and O(1) amortized fire for the dominant short-horizon
timers, independent of how many events are pending.  The heap's
O(log n) element-wise tuple comparisons are what plateau the fleet-scale
workloads (thousands of concurrent timer chains); the wheel replaces them
with an array index.

Structure (see docs/performance.md for the full design discussion):

* **Three wheel levels** of 256 slots each.  Simulated time maps to an
  integer tick index ``idx = int(when * 2**resolution_bits)``; level 0
  spans 256 ticks, level 1 spans 256 level-0 blocks, level 2 spans 256
  level-1 blocks — about 194 simulated days at the default 1/128 s
  resolution.  A post lands in the coarsest level where its index shares
  the wheel cursor's aligned block prefix (one XOR and two compares).
* **Occupancy bitmaps** (one 256-bit int per level) make "next nonempty
  slot" a shift and a count-trailing-zeros, so idle stretches cost O(1)
  rather than a slot-by-slot scan.
* **Cascade on rollover**: when level 0 drains, the next level-1 slot is
  exploded into level-0 slots (and level 2 into level 1); each entry
  cascades at most twice in its life.
* **Overflow band**: timers beyond the top-level horizon go to a small
  binary heap, pulled back into the wheel one top-level block at a time —
  the far-future band is where cancelled-entry compaction pays off, so
  it gets the same threshold-based compaction as the heap engine.
* **Ready heap**: zero-delay posts, same-tick posts, and entries that
  land at or behind the cursor (possible after a bounded ``run(until=)``
  advanced the clock without draining the wheel) keep exact
  ``(when, seq)`` order through a tiny heap that interleaves with the
  current slot during dispatch.
* **Sparse bypass**: while fewer than :data:`_SPARSE_THRESHOLD` events
  are pending, posts go straight to the ready heap and skip the slot
  machinery entirely.  A near-empty wheel (one or two live timer chains)
  otherwise pays buffer allocation, slot bookkeeping, and refill scans
  per event — the sparse-post regression that kept the heap the default
  core.  The bypass is order-safe by construction: dispatch interleaves
  the ready heap with the active slot by exact ``(when, seq)`` tuple
  comparison, so band placement is purely a performance decision.
* **Adaptive resolution**: ``resolution_bits`` and ``levels`` are
  constructor parameters, and by default the engine *adapts* the
  resolution online — a deterministic counter-strided reservoir of
  observed post delays (every 64th post, no RNG) feeds a cost model
  (:meth:`WheelEngine.suggest_resolution_bits`) that scores candidate
  resolutions by expected cascade + same-tick-collision cost, and
  :meth:`WheelEngine.adapt_resolution` rebuilds the bands at the winner.
  Rebuilds preserve exact firing order (every band orders by
  ``(when, seq)``), so adaptation is invisible except for speed.

Determinism: entries are the same plain ``(when, seq, fn, args)`` tuples
(or :class:`~repro.simos.engine.EventHandle` subclasses) the heap engine
uses, and every dispatch path compares them tuple-wise, so a seeded
simulation fires the exact same event sequence on either core — the
wheel oracle in :mod:`repro.verify` holds the two to bit-identical logs.
"""

from __future__ import annotations

import math
import time
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator

from repro.simos.engine import (
    _COMPACT_MIN_STALE,
    TICK_INDEX_LIMIT,
    EventHandle,
    SimulationError,
    clamp_horizon,
)

__all__ = ["WheelEngine"]

_INF = float("inf")

#: Slots per wheel level (fixed: the bitmap tricks assume 256).
_SLOTS = 256

#: Single-bit masks and their complements, precomputed so the hot path
#: never allocates a fresh ``1 << s`` on every post.
_BIT = tuple(1 << i for i in range(_SLOTS))
_NBIT = tuple(~(1 << i) for i in range(_SLOTS))

#: While pending events number at or below this, posts bypass the slot
#: machinery and go straight to the ready heap (see the module docstring's
#: "sparse bypass").  8 covers the sparse workloads that regressed (a
#: handful of live timer chains) while keeping the ready heap tiny; dense
#: workloads blow past it immediately and use the slots.
_SPARSE_THRESHOLD = 8

#: Delay-reservoir geometry: every ``_OBS_STRIDE``-th post records its
#: delay into a ``_OBS_SLOTS``-entry ring (deterministic counter striding,
#: not RNG sampling — the determinism lint forbids unseeded randomness and
#: the stride is statistically adequate for a resolution decision).  Each
#: full ring (``_OBS_STRIDE * _OBS_SLOTS`` = 16384 posts) triggers one
#: adaptation check.
_OBS_STRIDE = 64
_OBS_SLOTS = 256

#: Cost-model weights for :meth:`WheelEngine.suggest_resolution_bits`, in
#: "slot touches" per posted event: landing in level 0 costs one touch;
#: each cascade rehomes the entry once more; a same-tick collision pays
#: heap ordering in the ready band; overflow pays heap push + pull-back.
_COST_L0 = 1.0
_COST_CASCADE = 1.0
_COST_SAME_TICK = 2.5
_COST_OVERFLOW = 5.0

#: Adapt only when the modeled cost improves by at least this factor —
#: hysteresis so borderline workloads don't oscillate between resolutions.
_ADAPT_HYSTERESIS = 0.9


class WheelEngine:
    """Timing-wheel event core with the heap engine's exact contract."""

    # verify: allow-slots (the verify invariant monitor shadows step and
    # the scheduling methods through the instance dict, exactly as it does
    # for Engine; one engine per simulation, so slots buy nothing)

    def __init__(
        self,
        resolution_bits: int | None = None,
        levels: int = 3,
        adaptive: bool | None = None,
        sparse_threshold: int | None = None,
    ) -> None:
        """Build a wheel core.

        ``resolution_bits`` sets ticks-per-second to ``2**resolution_bits``
        (default 7 = 1/128 s, the static heuristic for the paper's
        10 ms–2 s timer band).  Passing it explicitly *pins* the
        resolution — adaptation defaults off — while leaving it ``None``
        starts at the heuristic default and lets the online adaptation
        pass retune it from the observed delay distribution.  ``levels``
        (1–3) bounds the wheel horizon to ``256**levels`` ticks; timers
        beyond it ride the overflow heap.  ``adaptive`` overrides the
        pin-implies-static default in either direction.
        ``sparse_threshold`` overrides the pending-population cutoff for
        the ready-heap sparse bypass (0 disables it — every post takes the
        slot path, which the wheel level tests rely on).
        """
        if resolution_bits is None:
            bits = 7
            if adaptive is None:
                adaptive = True
        else:
            bits = resolution_bits
            if adaptive is None:
                adaptive = False
        if not 0 <= bits <= 20:
            raise SimulationError(
                f"resolution_bits must be in [0, 20], got {resolution_bits}"
            )
        if not 1 <= levels <= 3:
            raise SimulationError(f"levels must be in [1, 3], got {levels}")
        if sparse_threshold is None:
            sparse_threshold = _SPARSE_THRESHOLD
        elif sparse_threshold < 0:
            raise SimulationError(
                f"sparse_threshold must be >= 0, got {sparse_threshold}"
            )
        self._sparse = sparse_threshold
        #: Ticks per second (a power of two, so ``when * _inv`` is an exact
        #: float scaling and the tick index is monotone in ``when``).
        self._inv = float(1 << bits)
        self._resolution_bits = bits
        self._levels = levels
        #: Level horizons as XOR thresholds (see _insert).  A disabled
        #: level gets threshold 0, so its ``x < lim`` branch never takes
        #: and out-of-horizon entries fall through to the overflow heap.
        self._lim1 = 65536 if levels >= 2 else 0
        self._lim2 = 16777216 if levels >= 3 else 0
        #: Overflow pull-back geometry: entries come back from the
        #: far-future heap one top-level block at a time.
        self._pull_shift = 8 * levels
        self._pull_align = ~((1 << (8 * levels - 8)) - 1)
        self._adaptive = adaptive
        self._adaptations = 0  # completed resolution rebuilds
        #: Deterministic delay reservoir (see _OBS_STRIDE/_OBS_SLOTS).
        self._obs: list[float | None] = [None] * _OBS_SLOTS
        #: Change signature of the reservoir at the last adaptation check
        #: (count, exact sum) — a repeat signature skips the re-ranking.
        self._obs_sig: tuple | None = None
        #: Refill-loop iteration counter: one increment per band scan in
        #: :meth:`_refill`, giving tests and the adaptation cost model an
        #: O(occupied-slot) work witness for idle-wheel advances.
        self._scan_iters = 0
        self._now = 0.0
        self._seq = 0  # total events ever scheduled (posts + handles)
        self._events_fired = 0
        self._cancelled = 0  # handles cancelled before firing
        self._drained = 0  # live entries discarded by drain()
        self._stale = 0  # cancelled handles still stored in some band
        self._monitored = False  # routes run() through step() for audit hooks
        #: True until the first cancellable handle is created.  A pure-post
        #: engine can run the drain loop without per-event class checks;
        #: the flag only ever flips True -> False, and entries reach the
        #: dispatch buffer only through _refill, so a buffer chosen under
        #: purity stays handle-free for its whole drain.
        self._pure = True
        #: Wheel cursor: the tick index dispatch has advanced to.  Only
        #: ever moves forward, and only to slots that are about to drain.
        self._cur = 0
        self._l0: list[list] = [[] for _ in range(_SLOTS)]
        self._l1: list[list] = [[] for _ in range(_SLOTS)]
        self._l2: list[list] = [[] for _ in range(_SLOTS)]
        self._bm0 = 0
        self._bm1 = 0
        self._bm2 = 0
        #: Far-future band: a plain heap, compacted when cancels dominate.
        self._overflow: list = []
        #: Due-now band: zero-delay and behind-cursor entries, heap-ordered.
        self._ready: list = []
        #: The slot being dispatched, sorted descending so ``pop()`` yields
        #: events in ``(when, seq)`` order without shifting the list.
        self._buf: list = []
        self._tick_observe: Callable[[float], None] | None = None
        self._tick_sample_every = 1024

    # -- time ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time, in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total events executed (for instrumentation and sanity checks)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Scheduled events not yet fired or cancelled (O(1), derived)."""
        return self._seq - self._events_fired - self._cancelled - self._drained

    @property
    def resolution_bits(self) -> int:
        """Current ticks-per-second exponent (may change when adaptive)."""
        return self._resolution_bits

    @property
    def levels(self) -> int:
        """Configured wheel depth (1–3 levels of 256 slots)."""
        return self._levels

    @property
    def adaptations(self) -> int:
        """Completed online resolution rebuilds."""
        return self._adaptations

    def next_event_time(self) -> float | None:
        """Firing time of the next live event, or ``None`` when drained.

        Same contract as :meth:`Engine.next_event_time`: cancelled entries
        at the band heads are skipped (and accounted), so the returned
        time is exactly what the next :meth:`step` will fire at.
        """
        e = self._peek_entry()
        return None if e is None else e[0]

    # -- scheduling ----------------------------------------------------------
    def _reject_time(self, when: float) -> None:
        """Cold path: raise the precise error for an out-of-range time."""
        if not math.isfinite(when):
            raise SimulationError(f"event time must be finite, got {when}")
        raise SimulationError(
            f"cannot schedule event at {when} before current time {self._now}"
        )

    def _insert(self, when: float, entry: tuple) -> None:
        """Place one entry in the band its tick index calls for.

        Level selection is one XOR against the cursor: because the cursor
        only ever advances to the *start* of the block it is draining,
        ``idx ^ cur < 256`` exactly when the two indexes share a level-0
        block, ``< 256**2`` a level-1 block, and so on — so an entry's
        level-1/level-2 slot is never at or behind the cursor's position
        in that level, which is what makes the bitmap scans in
        :meth:`_refill` exact.

        The sparse bypass short-circuits all of it: while nothing is
        slotted and the ready heap is below the sparse threshold, band
        placement is a single heap push.  The check costs one attribute
        load in the dense regime (an occupancy bitmap is nonzero and
        short-circuits) and stays order-safe in every regime — dispatch
        interleaves by exact ``(when, seq)`` comparison regardless of
        band, so placement is purely a performance decision.
        """
        if (
            not self._buf
            and not self._bm0
            and not (self._bm1 | self._bm2)
            and not self._overflow
            and len(self._ready) < self._sparse
        ):
            heappush(self._ready, entry)
            return
        # A tick index past the addressable range lands in the far-future
        # overflow band through the level-placement else-branch below
        # (x = idx ^ cur is then >= _lim2); only a product that overflows
        # float range entirely (int(inf) raises) needs the explicit catch.
        try:
            idx = int(when * self._inv)
        except OverflowError:
            heappush(self._overflow, entry)
            return
        cur = self._cur
        x = idx ^ cur
        if x < 256:
            if idx > cur:
                s = idx & 255
                slot = self._l0[s]
                if slot:
                    slot.append(entry)
                else:
                    slot.append(entry)
                    self._bm0 |= _BIT[s]
            else:
                heappush(self._ready, entry)
        elif idx < cur:
            # Behind the cursor: a bounded run() advanced time past this
            # slot without draining it (the cursor only jumps to occupied
            # slots).  Exact order is preserved through the ready heap.
            heappush(self._ready, entry)
        elif x < self._lim1:
            s = (idx >> 8) & 255
            slot = self._l1[s]
            if slot:
                slot.append(entry)
            else:
                slot.append(entry)
                self._bm1 |= _BIT[s]
        elif x < self._lim2:
            s = (idx >> 16) & 255
            slot = self._l2[s]
            if slot:
                slot.append(entry)
            else:
                slot.append(entry)
                self._bm2 |= _BIT[s]
        else:
            heappush(self._overflow, entry)

    def post_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``when``; no handle."""
        if not (self._now <= when < _INF):
            self._reject_time(when)
        seq = self._seq
        self._seq = seq + 1
        if not (seq & 63) and self._adaptive:
            self._observe_delay(seq, when - self._now)
        self._insert(when, (when, seq, fn, args))

    def post_after(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` seconds; no handle.

        The steady-state hot path: the placement logic is inlined here
        (rather than calling :meth:`_insert`) because one Python call
        frame per post is the difference between beating the heap core
        and matching it.  The sparse bypass comes first — a near-empty
        engine pays one bitmap test and a tiny heap push, nothing
        else, and the dense regime pays a single short-circuited
        occupancy-bitmap load to skip it — and the delay reservoir samples
        every 64th post (one bitmask test on the others).
        """
        when = self._now + delay
        if not (self._now <= when < _INF):
            if delay < 0:
                raise SimulationError(f"delay must be non-negative, got {delay}")
            self._reject_time(when)
        seq = self._seq
        self._seq = seq + 1
        if not (seq & 63) and self._adaptive:
            self._observe_delay(seq, delay)
        if (
            not self._buf
            and not self._bm0
            and not (self._bm1 | self._bm2)
            and not self._overflow
            and len(self._ready) < self._sparse
        ):
            heappush(self._ready, (when, seq, fn, args))
            return
        try:
            idx = int(when * self._inv)
        except OverflowError:
            heappush(self._overflow, (when, seq, fn, args))
            return
        cur = self._cur
        x = idx ^ cur
        if x < 256:
            if idx > cur:
                s = idx & 255
                slot = self._l0[s]
                if slot:
                    slot.append((when, seq, fn, args))
                else:
                    slot.append((when, seq, fn, args))
                    self._bm0 |= _BIT[s]
            else:
                heappush(self._ready, (when, seq, fn, args))
        elif idx < cur:
            heappush(self._ready, (when, seq, fn, args))
        elif x < self._lim1:
            s = (idx >> 8) & 255
            slot = self._l1[s]
            if slot:
                slot.append((when, seq, fn, args))
            else:
                slot.append((when, seq, fn, args))
                self._bm1 |= _BIT[s]
        elif x < self._lim2:
            s = (idx >> 16) & 255
            slot = self._l2[s]
            if slot:
                slot.append((when, seq, fn, args))
            else:
                slot.append((when, seq, fn, args))
                self._bm2 |= _BIT[s]
        else:
            heappush(self._overflow, (when, seq, fn, args))

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``when``; cancellable."""
        if not (self._now <= when < _INF):
            self._reject_time(when)
        seq = self._seq
        self._seq = seq + 1
        self._pure = False
        handle = tuple.__new__(EventHandle, (when, seq, fn, args))
        handle._engine = self
        self._insert(when, handle)
        return handle

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds; cancellable."""
        when = self._now + delay
        if not (self._now <= when < _INF):
            if delay < 0:
                raise SimulationError(f"delay must be non-negative, got {delay}")
            self._reject_time(when)
        seq = self._seq
        self._seq = seq + 1
        self._pure = False
        handle = tuple.__new__(EventHandle, (when, seq, fn, args))
        handle._engine = self
        self._insert(when, handle)
        return handle

    def _note_cancel(self) -> None:
        """A stored handle was cancelled; compact if inert entries dominate.

        Same threshold rule as the heap engine: a live O(1) counter
        comparison, with the rebuild only when cancelled entries are both
        numerous and the majority of what is stored.
        """
        self._cancelled += 1
        stale = self._stale + 1
        self._stale = stale
        if stale > _COMPACT_MIN_STALE and stale > self.pending:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the slots, overflow, and ready bands.

        All filtering is in place (slice assignment, in-place heapify), so
        a dispatch loop holding a band reference mid-callback stays
        consistent; the active slot buffer is deliberately left alone —
        its cancelled entries are skipped (and accounted) as dispatch
        reaches them.  Slot order is append order and the heaps
        re-heapify, so the exact ``(when, seq)`` firing order survives and
        compaction is invisible except for speed.
        """
        removed = 0
        for slots, bm_name in (
            (self._l0, "_bm0"),
            (self._l1, "_bm1"),
            (self._l2, "_bm2"),
        ):
            bm = getattr(self, bm_name)
            probe = bm
            while probe:
                s = (probe & -probe).bit_length() - 1
                probe &= probe - 1
                slot = slots[s]
                live = [e for e in slot if e.__class__ is tuple or not e.cancelled]
                if len(live) != len(slot):
                    removed += len(slot) - len(live)
                    slot[:] = live
                    if not live:
                        bm &= _NBIT[s]
            setattr(self, bm_name, bm)
        for band in (self._overflow, self._ready):
            live = [e for e in band if e.__class__ is tuple or not e.cancelled]
            if len(live) != len(band):
                removed += len(band) - len(live)
                band[:] = live
                heapify(band)
        self._stale -= removed

    # -- introspection --------------------------------------------------------
    def _entries(self) -> Iterator[tuple]:
        """Yield every stored entry across all bands (audit/debug path)."""
        for slots in (self._l0, self._l1, self._l2):
            for slot in slots:
                yield from slot
        yield from self._overflow
        yield from self._ready
        yield from self._buf

    def _audit_slots(self) -> list[str]:
        """Check bitmap/slot consistency; return human-readable problems.

        Invariant: a level's bitmap bit is set exactly when its slot list
        is nonempty (cancelled entries count — their bits clear only when
        compaction or a refill empties the slot).
        """
        problems: list[str] = []
        for level, (slots, bm) in enumerate(
            ((self._l0, self._bm0), (self._l1, self._bm1), (self._l2, self._bm2))
        ):
            for s in range(_SLOTS):
                occupied = bool(slots[s])
                flagged = bool(bm & _BIT[s])
                if occupied != flagged:
                    problems.append(
                        f"level {level} slot {s}: "
                        f"{len(slots[s])} entries but bitmap bit is {int(flagged)}"
                    )
        return problems

    # -- instrumentation -------------------------------------------------------
    def attach_tick_observer(
        self,
        observe: Callable[[float], None] | None,
        sample_every: int = 1024,
    ) -> None:
        """Feed mean per-event wall latency to ``observe`` while running.

        Same contract as :meth:`Engine.attach_tick_observer`: wall time is
        measurement-only and never reaches simulated time or digests.
        """
        if sample_every < 1:
            raise SimulationError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self._tick_observe = observe
        self._tick_sample_every = sample_every

    # -- adaptive resolution ---------------------------------------------------
    def _observe_delay(self, seq: int, delay: float) -> None:
        """Record one sampled post delay; adapt when the ring wraps.

        Callers pre-filter to every :data:`_OBS_STRIDE`-th post (a single
        ``seq & 63`` test on the hot path), so this runs on ~1.6% of
        posts; the full adaptation check runs once per
        ``_OBS_STRIDE * _OBS_SLOTS`` (16384) posts.
        """
        i = (seq >> 6) & 255
        self._obs[i] = delay
        if i == 255:
            self._maybe_adapt()

    def _delay_cost(self, bits: int, samples: list) -> float:
        """Modeled per-post slot-touch cost at a candidate resolution.

        The cost model scores where each sampled delay would land at
        ``2**bits`` ticks/second: sub-tick delays collide in the ready
        heap (ordering cost), level-0 landings are one slot touch, each
        higher level adds a cascade rehoming, and past-horizon delays pay
        the overflow heap + pull-back.  Empty-slot scans are already
        O(popcount) thanks to the occupancy bitmaps, so they contribute no
        resolution-dependent term worth modeling.
        """
        lim1 = float(self._lim1 or 256)
        lim2 = float(self._lim2 or self._lim1 or 256)
        scale = float(1 << bits)
        cost = 0.0
        for d in samples:
            t = clamp_horizon(d * scale, TICK_INDEX_LIMIT)
            if t < 1.0:
                cost += _COST_SAME_TICK
            elif t < 256.0:
                cost += _COST_L0
            elif t < lim1:
                cost += _COST_L0 + _COST_CASCADE
            elif t < lim2:
                cost += _COST_L0 + 2.0 * _COST_CASCADE
            else:
                cost += _COST_OVERFLOW
        return cost / len(samples)

    def suggest_resolution_bits(self) -> int:
        """Resolution the cost model prefers for the observed delays.

        Static heuristic fallback: with fewer than 32 reservoir samples
        there is not enough delay evidence to justify a retune, so the
        current resolution stands (the 1/128 s default places the paper's
        10 ms–2 s timer band inside level 0).  Ties and near-ties resolve
        toward the current resolution, then toward fewer bits — both
        deterministic.
        """
        samples = [d for d in self._obs if d is not None]
        if len(samples) < 32:
            return self._resolution_bits
        current = self._resolution_bits
        best = (self._delay_cost(current, samples), 0, current)
        for bits in range(21):
            if bits == current:
                continue
            rank = (self._delay_cost(bits, samples), abs(bits - current), bits)
            if rank < best:
                best = rank
        return best[2]

    def _maybe_adapt(self) -> None:
        """Adapt if the best candidate clears the hysteresis margin.

        A full candidate ranking costs ~21 cost-model passes over the
        reservoir, so it only runs when the reservoir actually changed:
        the ring's exact sum is the change signature (deterministic, one
        pass), and a steady workload — same delays wrap after wrap —
        skips the ranking entirely.
        """
        samples = [d for d in self._obs if d is not None]
        if len(samples) < 32:
            return
        sig = (len(samples), math.fsum(samples))
        if sig == self._obs_sig:
            return
        self._obs_sig = sig
        current = self._resolution_bits
        current_cost = self._delay_cost(current, samples)
        best = (current_cost, 0, current)
        for bits in range(21):
            if bits == current:
                continue
            rank = (self._delay_cost(bits, samples), abs(bits - current), bits)
            if rank < best:
                best = rank
        if best[2] != current and best[0] < _ADAPT_HYSTERESIS * current_cost:
            self.adapt_resolution(best[2])

    def adapt_resolution(self, resolution_bits: int | None = None) -> bool:
        """Rebuild every band at a new resolution; ``True`` if it changed.

        With ``resolution_bits=None`` the cost model picks
        (:meth:`suggest_resolution_bits`).  The rebuild collects every
        stored entry from the slot, overflow, and ready bands (dropping
        cancelled handles, which adjusts the stale count), resets the
        cursor to the current time at the new resolution, and re-inserts.
        Exact firing order is unchanged because every band orders by
        ``(when, seq)`` — adaptation is invisible to the simulation except
        for speed, which is what keeps seeded runs digest-identical across
        resolutions.  The active dispatch buffer is deliberately left in
        place: its entries are already committed to fire before anything
        still stored, and the interleave against the ready heap keeps
        their order exact.
        """
        if resolution_bits is None:
            bits = self.suggest_resolution_bits()
        else:
            bits = resolution_bits
            if not 0 <= bits <= 20:
                raise SimulationError(
                    f"resolution_bits must be in [0, 20], got {bits}"
                )
        if bits == self._resolution_bits:
            return False
        entries: list = []
        for slots in (self._l0, self._l1, self._l2):
            for slot in slots:
                if slot:
                    entries.extend(slot)
                    slot.clear()
        entries.extend(self._overflow)
        self._overflow.clear()
        entries.extend(self._ready)
        self._ready.clear()
        self._bm0 = 0
        self._bm1 = 0
        self._bm2 = 0
        self._resolution_bits = bits
        self._inv = float(1 << bits)
        scaled_now = self._now * self._inv
        self._cur = int(scaled_now) if scaled_now < TICK_INDEX_LIMIT else 0
        dropped = 0
        ins = self._insert
        for e in entries:
            if e.__class__ is not tuple and e.cancelled:
                dropped += 1
                continue
            ins(e[0], e)
        self._stale -= dropped
        self._adaptations += 1
        return True

    # -- dispatch internals ----------------------------------------------------
    def _refill(self) -> bool:
        """Advance the cursor to the next occupied slot and load ``_buf``.

        Returns ``False`` when every band is empty.  May push entries into
        the ready heap (a cascade can land an entry at the new cursor), so
        callers must re-check ``_ready`` after a ``False`` return.

        Each loop iteration is one bitmap scan / cascade / overflow pull —
        O(1) work thanks to the occupancy bitmaps — so ``_scan_iters``
        grows with the number of *occupied* slots crossed, never with the
        tick distance: an idle wheel advancing an arbitrary horizon costs
        O(popcount), which the skip-ahead property tests assert.
        """
        while True:
            self._scan_iters += 1
            cur = self._cur
            pos = cur & 255
            m = self._bm0 >> pos
            if m:
                s = pos + ((m & -m).bit_length() - 1)
                self._cur = (cur & -256) | s
                buf = self._l0[s]
                self._l0[s] = []
                self._bm0 &= _NBIT[s]
                buf.sort(reverse=True)
                self._buf = buf
                return True
            pos1 = (cur >> 8) & 255
            m1 = self._bm1 >> (pos1 + 1)
            if m1:
                s1 = pos1 + 1 + ((m1 & -m1).bit_length() - 1)
                self._cur = ((cur >> 16) << 16) | (s1 << 8)
                self._bm1 &= _NBIT[s1]
                entries = self._l1[s1]
                self._l1[s1] = []
                # Cascade: explode the level-1 slot into level-0 slots.
                # Every entry lands strictly inside the new cursor block,
                # so the placement is a masked index, not a full _insert.
                inv = self._inv
                l0 = self._l0
                bm0 = self._bm0
                for e in entries:
                    s = int(e[0] * inv) & 255
                    l0[s].append(e)
                    bm0 |= _BIT[s]
                self._bm0 = bm0
                continue
            pos2 = (cur >> 16) & 255
            m2 = self._bm2 >> (pos2 + 1)
            if m2:
                s2 = pos2 + 1 + ((m2 & -m2).bit_length() - 1)
                self._cur = ((cur >> 24) << 24) | (s2 << 16)
                self._bm2 &= _NBIT[s2]
                entries = self._l2[s2]
                self._l2[s2] = []
                for e in entries:
                    self._insert(e[0], e)
                continue
            if self._overflow:
                ov = self._overflow
                inv = self._inv
                scaled = ov[0][0] * inv
                if scaled >= TICK_INDEX_LIMIT:
                    # Past the addressable tick range: dispatch these one
                    # at a time in exact heap order through the ready band.
                    heappush(self._ready, heappop(ov))
                    return False
                idx = int(scaled)
                self._cur = idx & self._pull_align
                shift = self._pull_shift
                top = idx >> shift
                # Pull the whole top-level block back into the wheel; the
                # rest of the far-future band stays in the heap.
                while ov:
                    scaled = ov[0][0] * inv
                    if scaled >= TICK_INDEX_LIMIT or int(scaled) >> shift != top:
                        break
                    e = heappop(ov)
                    self._insert(e[0], e)
                continue
            return False

    def _next_entry(self):
        """Pop the globally next live entry, or ``None`` when empty."""
        while True:
            buf = self._buf
            ready = self._ready
            while buf:
                e = buf[-1]
                if e.__class__ is not tuple and e.cancelled:
                    buf.pop()
                    self._stale -= 1
                    continue
                break
            while ready:
                e = ready[0]
                if e.__class__ is not tuple and e.cancelled:
                    heappop(ready)
                    self._stale -= 1
                    continue
                break
            if buf:
                if ready and ready[0] < buf[-1]:
                    return heappop(ready)
                return buf.pop()
            if ready:
                # Sparse fast path: with the slot and overflow bands empty
                # the ready heap is the whole world; and even when they are
                # not, a ready head at or behind the cursor provably fires
                # before any slotted entry (slots only ever hold ticks
                # strictly beyond the cursor), so popping it directly is
                # exact — and keeps the cursor put, so in-flight posts keep
                # landing in slots instead of chasing a prematurely
                # advanced cursor into the ready band.
                if (
                    not (self._bm0 | self._bm1 | self._bm2)
                    and not self._overflow
                ) or int(ready[0][0] * self._inv) <= self._cur:
                    return heappop(ready)
            if not self._refill() and not self._ready:
                return None
            # A slotted entry may order before the ready head: loop to
            # interleave the freshly loaded buffer (or the far-future head
            # the refill moved into ready) in exact (when, seq) order.

    def _peek_entry(self):
        """The globally next live entry without removing it, or ``None``.

        Skips (and accounts) cancelled entries at the band heads, exactly
        like :meth:`_next_entry`, so peek-then-pop sees the same entry.
        """
        while True:
            buf = self._buf
            ready = self._ready
            while buf:
                e = buf[-1]
                if e.__class__ is not tuple and e.cancelled:
                    buf.pop()
                    self._stale -= 1
                    continue
                break
            while ready:
                e = ready[0]
                if e.__class__ is not tuple and e.cancelled:
                    heappop(ready)
                    self._stale -= 1
                    continue
                break
            if buf:
                if ready and ready[0] < buf[-1]:
                    return ready[0]
                return buf[-1]
            if ready and (
                (
                    not (self._bm0 | self._bm1 | self._bm2)
                    and not self._overflow
                )
                or int(ready[0][0] * self._inv) <= self._cur
            ):
                # Sparse fast path (see _next_entry): the ready head is
                # provably the globally next entry.
                return ready[0]
            if not self._refill() and not self._ready:
                return None

    # -- execution ------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event; return ``False`` if nothing is pending."""
        e = self._next_entry()
        if e is None:
            return False
        if e.__class__ is not tuple:
            e.cancelled = True  # Consumed: a late cancel() is a no-op.
        self._now = e[0]
        self._events_fired += 1
        e[2](*e[3])
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run events until drained, ``until`` passes, or the budget ends.

        Same contract as :meth:`Engine.run`: returns the stop time, and
        with ``until`` the clock advances to exactly ``until`` even when
        the last event fired earlier.
        """
        if self._monitored:
            return self._run_stepped(until, max_events)
        if self._tick_observe is not None:
            return self._run_instrumented(until, max_events)
        if until is None and max_events is None:
            return self._run_drain()
        fired = 0
        while True:
            head = self._peek_entry()
            if head is None:
                break
            if until is not None and head[0] > until:
                break
            if max_events is not None and fired >= max_events:
                return self._now
            e = self._next_entry()
            if e.__class__ is not tuple:
                e.cancelled = True
            self._now = e[0]
            self._events_fired += 1
            e[2](*e[3])
            fired += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _run_drain(self) -> float:
        """Drain-all fast loop: dispatch straight off the slot buffer.

        The inner ``while buf`` loop touches no band bookkeeping at all —
        pop, clock, call — and only breaks out when a callback pushed
        into the ready heap (a clamped or zero-delay post) that must be
        interleaved in exact ``(when, seq)`` order.  Fired-count updates
        are batched per buffer; the ``finally`` keeps the count exact
        even when a callback raises.
        """
        ready = self._ready
        while True:
            buf = self._buf
            if not buf:
                if ready and (
                    (
                        not (self._bm0 | self._bm1 | self._bm2)
                        and not self._overflow
                    )
                    or int(ready[0][0] * self._inv) <= self._cur
                ):
                    # Sparse fast path: either the slot and overflow bands
                    # are empty (ready is the whole world), or the ready
                    # head sits at or behind the cursor and so provably
                    # fires before any slotted entry — either way, pop it
                    # without a refill, keeping the cursor put so new
                    # posts keep landing in slots.
                    e = heappop(ready)
                    if e.__class__ is not tuple:
                        if e.cancelled:
                            self._stale -= 1
                            continue
                        e.cancelled = True
                    self._now = e[0]
                    self._events_fired += 1
                    e[2](*e[3])
                    continue
                if not self._refill():
                    if ready:
                        # A cascade clamped entries into ready, or the
                        # refill moved the far-future head there; loop to
                        # interleave (or fast-path once the slots drain).
                        continue
                    return self._now
                buf = self._buf
            if ready:
                # Interleave path: the ready heap holds due-now entries
                # that may order before the slot buffer's next event.
                if ready[0] < buf[-1]:
                    e = heappop(ready)
                else:
                    e = buf.pop()
                if e.__class__ is not tuple:
                    if e.cancelled:
                        self._stale -= 1
                        continue
                    e.cancelled = True
                self._now = e[0]
                self._events_fired += 1
                e[2](*e[3])
                continue
            n0 = len(buf)
            pop = buf.pop
            if self._pure:
                # Handle-free engine: no cancellation checks needed, and
                # fired-count updates batch per buffer.
                try:
                    while buf:
                        e = pop()
                        self._now = e[0]
                        e[2](*e[3])
                        if ready:
                            break
                finally:
                    self._events_fired += n0 - len(buf)
                continue
            skipped = 0
            try:
                while buf:
                    e = pop()
                    if e.__class__ is not tuple:
                        if e.cancelled:
                            skipped += 1
                            continue
                        e.cancelled = True
                    self._now = e[0]
                    e[2](*e[3])
                    if ready:
                        break
            finally:
                consumed = n0 - len(buf)
                self._events_fired += consumed - skipped
                self._stale -= skipped

    def _run_instrumented(
        self, until: float | None, max_events: int | None
    ) -> float:
        """run() with tick-latency sampling (see attach_tick_observer)."""
        observe = self._tick_observe
        every = self._tick_sample_every
        stamp = time.perf_counter()  # verify: allow-wall-clock (latency metric only)
        batch = 0
        fired = 0
        budget_hit = False
        while True:
            head = self._peek_entry()
            if head is None:
                break
            if until is not None and head[0] > until:
                break
            if max_events is not None and fired >= max_events:
                budget_hit = True
                break
            e = self._next_entry()
            if e.__class__ is not tuple:
                e.cancelled = True
            self._now = e[0]
            self._events_fired += 1
            e[2](*e[3])
            fired += 1
            batch += 1
            if batch >= every:
                now_wall = time.perf_counter()  # verify: allow-wall-clock (latency metric only)
                observe((now_wall - stamp) / batch)
                stamp = now_wall
                batch = 0
        if batch:
            now_wall = time.perf_counter()  # verify: allow-wall-clock (latency metric only)
            observe((now_wall - stamp) / batch)
        if budget_hit:
            return self._now
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _run_stepped(self, until: float | None, max_events: int | None) -> float:
        """run() routed through ``self.step()`` so monitors see every fire."""
        fired = 0
        while True:
            head = self._peek_entry()
            if head is None:
                break
            if until is not None and head[0] > until:
                break
            if max_events is not None and fired >= max_events:
                return self._now
            self.step()
            fired += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def drain(self) -> None:
        """Discard all pending events (used when tearing a simulation down)."""
        self._drained += self.pending
        for e in self._entries():
            if e.__class__ is not tuple:
                e.cancelled = True  # Late cancel() calls stay no-ops.
        for slots in (self._l0, self._l1, self._l2):
            for slot in slots:
                if slot:
                    slot.clear()
        self._bm0 = 0
        self._bm1 = 0
        self._bm2 = 0
        self._overflow.clear()
        self._ready.clear()
        self._buf.clear()
        self._stale = 0
