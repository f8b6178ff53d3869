"""Hierarchical timing-wheel event core: contract parity with the heap."""

from __future__ import annotations

import pytest

from repro.simos.engine import Engine, SimulationError
from repro.simos.wheel import WheelEngine

#: One tick at the default resolution (1/128 s).
TICK = 1.0 / 128.0
#: Level horizons at the default resolution: L0 spans 256 ticks (2 s),
#: L1 spans 65536 ticks (512 s), L2 spans 2^24 ticks (131072 s).
L0_SPAN = 2.0
L1_SPAN = 512.0
L2_SPAN = 131072.0


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = WheelEngine()
        fired = []
        engine.call_at(3.0, fired.append, "c")
        engine.call_at(1.0, fired.append, "a")
        engine.call_at(2.0, fired.append, "b")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self):
        engine = WheelEngine()
        fired = []
        for name in "abcde":
            engine.call_at(1.0, fired.append, name)
        engine.run()
        assert fired == list("abcde")

    def test_same_tick_different_times_fire_in_time_order(self):
        # Two distinct times inside one wheel tick must still fire in
        # time order, not slot-arrival order.
        engine = WheelEngine()
        fired = []
        engine.post_at(1.0 + TICK * 0.75, fired.append, "late")
        engine.post_at(1.0 + TICK * 0.25, fired.append, "early")
        engine.run()
        assert fired == ["early", "late"]

    def test_zero_delay_posts_fire_immediately_in_order(self):
        engine = WheelEngine()
        fired = []
        engine.post_after(0.0, fired.append, "a")
        engine.post_after(0.0, fired.append, "b")
        engine.call_after(0.0, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "c"]
        assert engine.now == 0.0

    def test_zero_delay_from_callback(self):
        engine = WheelEngine()
        fired = []

        def first():
            fired.append("first")
            engine.post_after(0.0, fired.append, "second")

        engine.post_at(1.0, first)
        engine.run()
        assert fired == ["first", "second"]
        assert engine.now == 1.0

    def test_no_past_scheduling(self):
        engine = WheelEngine()
        engine.call_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(4.0, lambda: None)

    def test_no_negative_delay(self):
        engine = WheelEngine()
        with pytest.raises(SimulationError):
            engine.post_after(-0.1, lambda: None)

    def test_non_finite_time_rejected(self):
        engine = WheelEngine()
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(SimulationError):
                engine.post_at(bad, lambda: None)

    def test_resolution_bits_validated(self):
        with pytest.raises(SimulationError):
            WheelEngine(resolution_bits=-1)
        with pytest.raises(SimulationError):
            WheelEngine(resolution_bits=21)

    def test_huge_but_finite_time_accepted(self):
        # Products like when * 128 overflow past the addressable tick
        # range near float max; the engine must route these to the
        # overflow band, not crash.
        engine = WheelEngine(sparse_threshold=0)
        engine.post_at(1.5e306, lambda: None)
        engine.post_at(1.0, lambda: None)
        assert engine.pending == 2
        engine.run(until=2.0)
        assert engine.events_fired == 1
        assert engine.pending == 1


class TestHorizons:
    @pytest.mark.parametrize(
        "when",
        [
            TICK,
            L0_SPAN - TICK,
            L0_SPAN,
            L0_SPAN + TICK,
            L1_SPAN - TICK,
            L1_SPAN,
            L1_SPAN + TICK,
            L2_SPAN - TICK,
            L2_SPAN,
            L2_SPAN + TICK,
        ],
    )
    def test_horizon_exact_posts_fire_at_exact_time(self, when):
        engine = WheelEngine(sparse_threshold=0)
        times = []
        engine.post_at(when, lambda: times.append(engine.now))
        engine.run()
        assert times == [when]
        assert engine.now == when

    def test_cascade_rollover_preserves_order(self):
        # Events across every level, including pairs one tick apart that
        # straddle the L0 and L1 horizons, must fire in exact time order
        # after the cascades rehome them.
        engine = WheelEngine(sparse_threshold=0)
        times = [
            0.5,
            L0_SPAN - TICK,
            L0_SPAN + TICK,
            7.3,
            L1_SPAN - TICK,
            L1_SPAN + TICK,
            900.0,
            L2_SPAN + 1.0,
        ]
        fired = []
        for when in reversed(times):
            engine.post_at(when, fired.append, when)
        engine.run()
        assert fired == sorted(times)
        assert engine.events_fired == len(times)

    def test_chain_through_rollovers(self):
        # A self-rescheduling chain whose period doesn't divide the tick
        # walks the cursor through many L0 rotations and L1 cascades.
        engine = WheelEngine(sparse_threshold=0)
        times = []

        def tick(n):
            times.append(engine.now)
            if n:
                engine.post_after(0.9999, tick, n - 1)

        engine.post_at(0.0, tick, 4000)
        engine.run()
        assert len(times) == 4001
        assert times == sorted(times)
        assert engine.now == pytest.approx(0.9999 * 4000)

    def test_post_behind_cursor_after_bounded_run(self):
        # run(until=...) can leave the internal cursor past `until` (it
        # advances to the next occupied slot).  A later post between
        # `until` and the cursor must still fire, in order.
        engine = WheelEngine(sparse_threshold=0)
        fired = []
        engine.post_at(0.5, fired.append, "early")
        engine.post_at(300.0, fired.append, "far")
        engine.run(until=1.0)
        assert fired == ["early"]
        engine.post_at(5.0, fired.append, "behind-cursor")
        engine.post_at(200.0, fired.append, "mid")
        engine.run()
        assert fired == ["early", "behind-cursor", "mid", "far"]


class TestCancellation:
    def test_cancel_prevents_firing(self):
        engine = WheelEngine()
        fired = []
        handle = engine.call_at(1.0, fired.append, "x")
        engine.call_at(2.0, fired.append, "y")
        handle.cancel()
        engine.run()
        assert fired == ["y"]
        assert engine.events_fired == 1

    def test_cancel_then_fire_race_same_tick(self):
        # A callback cancels a handle scheduled for the same time that
        # is already due; the cancelled event must not fire.
        engine = WheelEngine()
        fired = []
        victim = engine.call_at(1.0, fired.append, "victim")

        def killer():
            fired.append("killer")
            victim.cancel()

        # killer was scheduled second but cancels ahead of the victim's
        # own slot position only if cancellation works mid-dispatch.
        engine.call_at(0.5, killer)
        engine.run()
        assert fired == ["killer"]

    def test_cancel_during_same_time_burst(self):
        engine = WheelEngine()
        fired = []
        handles = {}

        def cancel_next(name, target):
            fired.append(name)
            handles[target].cancel()

        handles["b"] = engine.call_at(1.0, cancel_next, "b", "c")
        handles["c"] = engine.call_at(1.0, cancel_next, "c", "b")
        engine.call_at(1.0, fired.append, "d")
        # b fires first (FIFO), cancels c; d still fires.
        engine.run()
        assert fired == ["b", "d"]

    def test_cancel_is_idempotent_and_counted_once(self):
        engine = WheelEngine()
        handle = engine.call_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.pending == 0
        engine.run()
        assert engine.events_fired == 0

    def test_compaction_bounds_stale_entries(self):
        # Cancel-heavy churn must not accumulate dead entries: the
        # threshold compaction rule keeps stale below the live count
        # (plus the trigger threshold) at every point.
        engine = WheelEngine()
        for round_ in range(200):
            handles = [
                engine.call_after(float(i % 7) + 1.0, lambda: None)
                for i in range(40)
            ]
            for handle in handles[1:]:
                handle.cancel()
            engine.step()
            assert engine._stale <= max(64, engine.pending) + 40
        total = sum(1 for _ in engine._entries())
        assert total < 500  # 8000 schedules, ~7800 cancelled: mostly gone

    def test_cancel_in_overflow_band(self):
        engine = WheelEngine(sparse_threshold=0)
        fired = []
        handle = engine.call_at(L2_SPAN + 50.0, fired.append, "far")
        engine.post_at(L2_SPAN + 60.0, fired.append, "farther")
        handle.cancel()
        engine.run()
        assert fired == ["farther"]


class TestRunAndDrain:
    def test_run_until_advances_clock_exactly(self):
        engine = WheelEngine()
        engine.post_at(1.0, lambda: None)
        engine.post_at(5.0, lambda: None)
        assert engine.run(until=3.0) == 3.0
        assert engine.now == 3.0
        assert engine.events_fired == 1
        assert engine.pending == 1

    def test_run_max_events_budget(self):
        engine = WheelEngine()
        fired = []
        for i in range(10):
            engine.post_at(float(i + 1), fired.append, i)
        engine.run(max_events=4)
        assert fired == [0, 1, 2, 3]
        assert engine.pending == 6
        engine.run()
        assert fired == list(range(10))

    def test_step_returns_false_when_empty(self):
        engine = WheelEngine()
        assert engine.step() is False
        engine.post_at(1.0, lambda: None)
        assert engine.step() is True
        assert engine.step() is False

    def test_drain_discards_everything(self):
        engine = WheelEngine()
        fired = []
        engine.post_at(1.0, fired.append, "a")
        handle = engine.call_at(L1_SPAN + 1.0, fired.append, "b")
        engine.post_at(L2_SPAN + 1.0, fired.append, "c")
        engine.drain()
        assert engine.pending == 0
        assert handle.cancelled
        engine.run()
        assert fired == []
        assert engine.events_fired == 0

    def test_pending_counter_matches_scan(self):
        engine = WheelEngine()
        handles = [engine.call_after(float(i + 1), lambda: None) for i in range(20)]
        engine.post_after(600.0, lambda: None)
        for handle in handles[::2]:
            handle.cancel()
        live = sum(
            1
            for e in engine._entries()
            if e.__class__ is tuple or not e.cancelled
        )
        assert engine.pending == live == 11


class TestParityWithHeapEngine:
    def _drive(self, engine):
        log = []

        def fire(tag, repeats, interval):
            log.append((tag, engine.now))
            if repeats:
                engine.post_after(interval, fire, tag + 1, repeats - 1, interval)

        engine.post_after(0.0, fire, 0, 3, 0.9999)
        engine.post_after(2.0, fire, 100, 2, TICK)
        h = engine.call_after(1.5, fire, 200, 0, 1.0)
        engine.call_after(1.5, fire, 300, 1, L0_SPAN)
        h.cancel()
        engine.run(until=2.5)
        engine.post_after(510.0, fire, 400, 1, 3.0)
        engine.run(max_events=3)
        engine.run()
        return log, engine.now, engine.events_fired

    def test_identical_logs_and_counters(self):
        assert self._drive(WheelEngine()) == self._drive(Engine())

    def test_instrumented_run_matches(self):
        samples = []
        wheel = WheelEngine()
        wheel.attach_tick_observer(lambda *a: samples.append(a), sample_every=4)
        wheel_log = self._drive(wheel)
        heap = Engine()
        heap.attach_tick_observer(lambda *a: None, sample_every=4)
        assert wheel_log == self._drive(heap)
        assert samples  # the observer actually sampled

    def test_monitored_wheel_passes_invariant_audit(self):
        from repro.verify.invariants import EngineInvariantMonitor, ViolationRecorder

        recorder = ViolationRecorder(mode="raise")
        engine = WheelEngine()
        monitor = EngineInvariantMonitor(engine, recorder)
        self._drive(engine)
        monitor.detach()
        assert recorder.checks > 20
        assert recorder.ok

    def test_audit_slots_clean_after_workload(self):
        engine = WheelEngine()
        self._drive(engine)
        assert engine._audit_slots() == []


class TestSparseBypass:
    def test_sparse_posts_live_in_ready_band(self):
        engine = WheelEngine()
        for i in range(4):
            engine.post_after(float(i + 1), lambda: None)
        # All four posts bypassed the slot machinery.
        assert len(engine._ready) == 4
        assert engine._bm0 == engine._bm1 == engine._bm2 == 0

    def test_dense_posts_graduate_to_slots(self):
        engine = WheelEngine()
        for i in range(40):
            engine.post_after(0.25 + (i % 16) * 0.0625, lambda: None)
        assert engine._bm0 != 0  # population outgrew the bypass
        assert len(engine._ready) <= 8

    def test_mixed_band_population_fires_in_order(self):
        # Entries split across ready (early sparse posts) and slots
        # (later dense posts) must still interleave in exact time order.
        engine = WheelEngine()
        fired = []
        times = [1.75, 0.25, 1.25, 0.75, 1.5, 0.5, 1.0, 2.0]
        for t in times:
            engine.post_at(t, fired.append, t)
        for t in (0.3, 0.6, 0.9, 1.2, 1.8):
            engine.post_at(t, fired.append, t)
        engine.run()
        assert fired == sorted(times + [0.3, 0.6, 0.9, 1.2, 1.8])

    def test_bypass_matches_heap_exactly(self):
        def drive(engine):
            log = []

            def hop(n):
                log.append((engine.now, n))
                if n:
                    engine.post_after(0.37, hop, n - 1)

            engine.post_after(0.0, hop, 500)
            engine.run()
            return log, engine.now, engine.events_fired

        assert drive(WheelEngine()) == drive(Engine())

    def test_threshold_zero_disables_bypass(self):
        engine = WheelEngine(sparse_threshold=0)
        engine.post_after(1.0, lambda: None)
        assert not engine._ready
        assert engine._bm0 != 0


class TestAdaptiveResolution:
    def _fill_reservoir(self, engine, delay):
        # The reservoir samples every 64th post; drive enough posts that
        # suggest_resolution_bits has >= 32 samples.
        for _ in range(64 * 40):
            engine.post_after(delay, lambda: None)
        engine.drain()

    def test_default_engine_is_adaptive(self):
        assert WheelEngine()._adaptive is True
        assert WheelEngine(resolution_bits=7)._adaptive is False
        assert WheelEngine(resolution_bits=7, adaptive=True)._adaptive is True

    def test_static_fallback_without_samples(self):
        engine = WheelEngine()
        assert engine.suggest_resolution_bits() == 7

    def test_suggests_coarser_for_long_delays(self):
        # Delays of ~1000s at 1/128s resolution live in L2/overflow; the
        # cost model must prefer a coarser resolution that pulls them
        # into the cheap levels.
        engine = WheelEngine()
        self._fill_reservoir(engine, 1000.0)
        assert engine.suggest_resolution_bits() < 7

    def test_suggests_finer_for_sub_tick_delays(self):
        # Delays far below one tick all collide in the same tick; finer
        # resolution spreads them over slots.
        engine = WheelEngine()
        self._fill_reservoir(engine, 0.0005)
        assert engine.suggest_resolution_bits() > 7

    def test_adapt_resolution_rebuilds_and_preserves_order(self):
        engine = WheelEngine(sparse_threshold=0)
        fired = []
        times = [0.5, 3.0, 1.25, 600.0, 0.75, 131073.0, 2.0]
        for t in times:
            engine.post_at(t, fired.append, t)
        handle = engine.call_at(1.5, fired.append, "cancelled")
        handle.cancel()
        assert engine.adapt_resolution(4) is True
        assert engine.resolution_bits == 4
        assert engine.adaptations == 1
        assert engine._audit_slots() == []
        engine.run()
        assert fired == sorted(times)

    def test_adapt_resolution_noop_when_unchanged(self):
        engine = WheelEngine()
        assert engine.adapt_resolution(7) is False
        assert engine.adaptations == 0

    def test_adapt_resolution_validates_bits(self):
        engine = WheelEngine()
        with pytest.raises(SimulationError):
            engine.adapt_resolution(21)

    def test_online_adaptation_triggers_on_long_delay_workload(self):
        # A chain workload whose delays are all ~512s (deep L1/L2 at
        # 1/128s) must trigger an automatic coarsening within the first
        # adaptation window (16384 posts) — and keep firing in order.
        engine = WheelEngine(sparse_threshold=0)
        count = [0]

        def hop():
            count[0] += 1
            if count[0] < 20000:
                for _ in range(9):
                    engine.post_after(500.0 + (count[0] % 7) * 10.0, hop)

        engine.post_after(500.0, hop)
        engine.run(max_events=20000)
        assert engine.adaptations >= 1
        assert engine.resolution_bits < 7
        assert engine._audit_slots() == []

    def test_adaptation_identical_logs_vs_heap(self):
        # The adaptive wheel must stay bit-identical to the heap through
        # resolution rebuilds.
        def drive(engine):
            log = []

            def hop(tag, n, d):
                log.append((round(engine.now, 9), tag))
                if n:
                    engine.post_after(d, hop, tag, n - 1, d)

            for tag, d in ((1, 700.0), (2, 0.001), (3, 35.0)):
                engine.post_after(d, hop, tag, 6000, d)
            engine.run(max_events=17000)
            return log, engine.events_fired

        wheel = WheelEngine()
        wheel_log = drive(wheel)
        assert wheel_log == drive(Engine())
        assert wheel.adaptations >= 1  # the workload actually retuned


class TestLevels:
    def test_levels_validated(self):
        with pytest.raises(SimulationError):
            WheelEngine(levels=0)
        with pytest.raises(SimulationError):
            WheelEngine(levels=4)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_order_parity_across_depths(self, levels):
        # Identical event logs at every wheel depth: entries past the
        # shortened horizon ride the overflow band instead of upper
        # levels, which must be invisible except for speed.
        def drive(engine):
            fired = []
            times = [0.5, 3.0, 600.0, 1.25, 131073.0, 7.0, 0.25]
            for t in times:
                engine.post_at(t, fired.append, t)
            engine.run()
            return fired, engine.now, engine.events_fired

        assert drive(WheelEngine(levels=levels, sparse_threshold=0)) == drive(Engine())

    def test_shallow_wheel_uses_overflow_not_upper_levels(self):
        engine = WheelEngine(levels=1, sparse_threshold=0)
        engine.post_at(600.0, lambda: None)  # far past the 2s L0 horizon
        assert engine._bm1 == engine._bm2 == 0
        assert len(engine._overflow) == 1


class TestHorizonClamp:
    """Satellite regression tests: shared clamp for huge horizons."""

    def test_clamp_horizon_contract(self):
        from repro.simos.engine import TICK_INDEX_LIMIT, clamp_horizon

        assert clamp_horizon(1.5, 10.0) == 1.5
        assert clamp_horizon(float("inf"), 256.0) == 256.0
        assert clamp_horizon(2.0**70, TICK_INDEX_LIMIT) == TICK_INDEX_LIMIT
        assert clamp_horizon(2.0**70, float("inf")) == 2.0**70
        with pytest.raises(SimulationError):
            clamp_horizon(float("nan"), 10.0)

    def test_capped_backoff_shares_the_clamp(self):
        from repro.core.suspension import capped_backoff

        assert capped_backoff(1.0, 5000, 256.0) == 256.0
        assert capped_backoff(1.0, 70, float("inf")) == 2.0**70
        assert capped_backoff(1e300, 100, float("inf")) == float("inf")

    @pytest.mark.parametrize("make", [Engine, WheelEngine])
    def test_post_at_inf_raises_on_both_cores(self, make):
        engine = make()
        with pytest.raises(SimulationError):
            engine.post_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            engine.post_after(float("inf"), lambda: None)

    @pytest.mark.parametrize("make", [Engine, WheelEngine])
    def test_post_at_2_pow_70_fires_in_order_on_both_cores(self, make):
        # 2**70 seconds scales past the addressable tick range (2**70 *
        # 128 ticks/s >> 2**63) but is a legal finite event time: it must
        # schedule, order after every nearer event, and fire.
        engine = make()
        fired = []
        engine.post_at(2.0**70, fired.append, "far")
        engine.post_at(2.0**70 + 1e55, fired.append, "farther")
        engine.post_at(1.0, fired.append, "near")
        assert engine.pending == 3
        engine.run()
        assert fired == ["near", "far", "farther"]
        assert engine.now == 2.0**70 + 1e55

    def test_wheel_overflow_band_holds_past_tick_limit(self):
        engine = WheelEngine(sparse_threshold=0)
        engine.post_at(2.0**70, lambda: None)
        engine.post_at(2.0**56 / 128.0, lambda: None)  # inside the limit
        assert len(engine._overflow) == 2
        assert engine._audit_slots() == []


class TestSkipAhead:
    """Satellite property tests: idle advance is O(occupied slots)."""

    def test_idle_wheel_advance_fires_nothing_and_scans_little(self):
        # Advancing an *empty* wheel across a huge horizon must cost a
        # constant number of refill scans, not O(ticks crossed).
        engine = WheelEngine()
        before = engine._scan_iters
        engine.run(until=100000.0)  # 12.8M ticks at 1/128s
        assert engine.events_fired == 0
        assert engine.now == 100000.0
        assert engine._scan_iters - before <= 4

    @pytest.mark.parametrize("horizon", [10.0, 1000.0, 100000.0])
    def test_sparse_occupancy_advance_work_scales_with_events(self, horizon):
        # A wheel holding k events spread over an arbitrary horizon does
        # O(k) refill scans to drain, independent of the tick distance:
        # the occupancy bitmaps skip every empty slot in O(1).
        engine = WheelEngine(sparse_threshold=0)
        k = 12
        for i in range(k):
            engine.post_at(horizon * (i + 1) / k, lambda: None)
        before = engine._scan_iters
        engine.run()
        scans = engine._scan_iters - before
        # Each event costs at most a few scans (slot load + cascade
        # per level + final empty sweep); the bound must not grow with
        # the horizon.
        assert engine.events_fired == k
        assert scans <= 6 * k
        assert engine._audit_slots() == []

    def test_audit_slots_clean_after_idle_advances(self):
        engine = WheelEngine(sparse_threshold=0)
        engine.post_at(50000.0, lambda: None)
        engine.run(until=1000.0)
        assert engine._audit_slots() == []
        engine.run(until=49999.0)
        assert engine._audit_slots() == []
        engine.run()
        assert engine.events_fired == 1
        assert engine._audit_slots() == []

    def test_cancel_then_skip_ahead_race(self):
        # Cancel the only occupant of a far slot, then advance past it:
        # the skip-ahead must account the stale entry and fire nothing.
        engine = WheelEngine(sparse_threshold=0)
        fired = []
        victim = engine.call_at(5000.0, fired.append, "victim")
        engine.post_at(9000.0, fired.append, "survivor")
        victim.cancel()
        engine.run(until=8000.0)
        assert fired == []
        engine.run()
        assert fired == ["survivor"]
        assert engine.pending == 0
        assert engine._stale == 0
        assert engine._audit_slots() == []

    def test_cancel_mid_advance_from_callback(self):
        # A callback cancels a handle sitting in a future slot while the
        # cursor is mid-flight; later skip-aheads must stay consistent.
        engine = WheelEngine(sparse_threshold=0)
        fired = []
        far = engine.call_at(700.0, fired.append, "far")

        def killer():
            fired.append("killer")
            far.cancel()

        engine.post_at(1.0, killer)
        engine.post_at(900.0, fired.append, "end")
        engine.run()
        assert fired == ["killer", "end"]
        assert engine._audit_slots() == []
