"""Discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simos.engine import Engine, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.call_at(3.0, fired.append, "c")
        engine.call_at(1.0, fired.append, "a")
        engine.call_at(2.0, fired.append, "b")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self):
        engine = Engine()
        fired = []
        for name in "abcde":
            engine.call_at(1.0, fired.append, name)
        engine.run()
        assert fired == list("abcde")

    def test_call_after_relative(self):
        engine = Engine()
        times = []
        engine.call_after(0.5, lambda: times.append(engine.now))
        engine.run()
        assert times == [0.5]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        engine.call_at(7.5, lambda: None)
        engine.run()
        assert engine.now == 7.5

    def test_no_past_scheduling(self):
        engine = Engine()
        engine.call_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(4.0, lambda: None)

    def test_no_negative_delay(self):
        with pytest.raises(SimulationError):
            Engine().call_after(-1.0, lambda: None)

    @pytest.mark.parametrize("method", ["post_after", "call_after"])
    @pytest.mark.parametrize("delay", [-1e-300, -1e-17, -5e-324, -1e-3, -float("inf")])
    def test_every_negative_delay_rejected(self, method, delay):
        # At now = 1.0, 1.0 + delay rounds to 1.0 for the tiny delays, so
        # only the delay itself shows they point into the past.
        engine = Engine()
        engine.now = 1.0
        with pytest.raises(SimulationError, match="delay must be non-negative"):
            getattr(engine, method)(delay, lambda: None)
        assert engine.pending == 0

    @pytest.mark.parametrize("method", ["post_after", "call_after"])
    def test_zero_and_nonfinite_delays(self, method):
        engine = Engine()
        engine.now = 1.0
        schedule = getattr(engine, method)
        schedule(0.0, lambda: None)
        schedule(-0.0, lambda: None)
        for delay in (float("nan"), float("inf")):
            with pytest.raises(SimulationError, match="must be finite"):
                schedule(delay, lambda: None)
        assert engine.pending == 2
        engine.now = 1e308
        with pytest.raises(SimulationError, match="must be finite"):
            schedule(1e308, lambda: None)  # now + delay overflows
        assert engine.pending == 2

    def test_no_infinite_time(self):
        with pytest.raises(SimulationError):
            Engine().call_at(float("inf"), lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.call_at(1.0, fired.append, "x")
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.call_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()

    def test_pending_counts_exclude_cancelled(self):
        engine = Engine()
        keep = engine.call_at(1.0, lambda: None)
        drop = engine.call_at(2.0, lambda: None)
        drop.cancel()
        assert engine.pending == 1


class TestRunControl:
    def test_run_until_stops_at_horizon(self):
        engine = Engine()
        fired = []
        engine.call_at(1.0, fired.append, "a")
        engine.call_at(10.0, fired.append, "b")
        engine.run(until=5.0)
        assert fired == ["a"]
        assert engine.now == 5.0  # clock tiles to the horizon

    def test_run_resumes_where_it_stopped(self):
        engine = Engine()
        fired = []
        engine.call_at(10.0, fired.append, "b")
        engine.run(until=5.0)
        engine.run(until=15.0)
        assert fired == ["b"]

    def test_max_events_budget(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.call_at(float(i), fired.append, i)
        engine.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_can_schedule_events(self):
        engine = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                engine.call_after(1.0, chain, n + 1)

        engine.call_at(0.0, chain, 0)
        engine.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert engine.now == 5.0

    def test_step_returns_false_when_empty(self):
        assert not Engine().step()

    def test_drain(self):
        engine = Engine()
        engine.call_at(1.0, lambda: None)
        engine.drain()
        assert engine.pending == 0


class TestPendingAccounting:
    """The O(1) pending counter must always equal an O(n) heap scan."""

    @staticmethod
    def _scan(engine):
        return sum(1 for h in engine._heap if not h.cancelled)

    def test_counter_matches_scan_through_lifecycle(self):
        engine = Engine()
        handles = [engine.call_at(float(i), lambda: None) for i in range(50)]
        assert engine.pending == self._scan(engine) == 50
        for handle in handles[::2]:
            handle.cancel()
        assert engine.pending == self._scan(engine) == 25
        engine.run(until=10.0)
        assert engine.pending == self._scan(engine)
        engine.run()
        assert engine.pending == self._scan(engine) == 0

    @given(st.lists(st.tuples(st.floats(0.0, 100.0), st.booleans()), max_size=120))
    def test_counter_matches_scan_random(self, entries):
        engine = Engine()
        for t, keep in entries:
            handle = engine.call_at(t, lambda: None)
            if not keep:
                handle.cancel()
        assert engine.pending == self._scan(engine)
        engine.run(until=50.0)
        assert engine.pending == self._scan(engine)

    def test_compaction_shrinks_heap(self):
        engine = Engine()
        keep = engine.call_at(1e6, lambda: None)
        handles = [engine.call_at(float(i + 1), lambda: None) for i in range(500)]
        for handle in handles:
            handle.cancel()
        # Cancelled entries dominated the heap, so it was rebuilt.
        assert len(engine._heap) < 100
        assert engine.pending == 1
        engine.run()
        assert engine.events_fired == 1
        assert keep.fn is None  # fired handles are consumed

    def test_compaction_preserves_order(self):
        engine = Engine()
        fired = []
        for i in range(100):
            engine.call_at(float(i), fired.append, i)
        victims = [engine.call_at(float(i % 100) + 0.5, lambda: None) for i in range(300)]
        for v in victims:
            v.cancel()  # triggers compaction mid-stream
        engine.run()
        assert fired == list(range(100))

    def test_cancel_after_drain_keeps_counts_consistent(self):
        engine = Engine()
        handle = engine.call_at(1.0, lambda: None)
        engine.drain()
        handle.cancel()  # must be a no-op, not a decrement
        assert engine.pending == 0
        engine.call_at(2.0, lambda: None)
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        handle = engine.call_at(1.0, lambda: None)
        engine.run()
        handle.cancel()
        assert engine.pending == 0


class TestProperties:
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=200))
    def test_arbitrary_schedules_fire_sorted(self, times):
        engine = Engine()
        fired = []
        for t in times:
            engine.call_at(t, lambda t=t: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(st.lists(st.tuples(st.floats(0.0, 100.0), st.booleans()), max_size=100))
    def test_cancellation_subset_fires(self, entries):
        engine = Engine()
        fired = []
        expected = 0
        for t, keep in entries:
            handle = engine.call_at(t, lambda: fired.append(None))
            if keep:
                expected += 1
            else:
                handle.cancel()
        engine.run()
        assert len(fired) == expected


class TestPostAPI:
    """post_at/post_after: the allocation-free, handle-less hot path."""

    def test_post_at_fires_in_time_order(self):
        engine = Engine()
        fired = []
        engine.post_at(2.0, fired.append, "b")
        engine.post_at(1.0, fired.append, "a")
        engine.post_at(3.0, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_post_after_is_relative(self):
        engine = Engine()
        when = []
        engine.post_at(5.0, lambda: engine.post_after(2.5, lambda: when.append(engine.now)))
        engine.run()
        assert when == [7.5]

    def test_posts_and_handles_interleave_fifo(self):
        engine = Engine()
        fired = []
        engine.post_at(1.0, fired.append, "post-first")
        engine.call_at(1.0, fired.append, "handle-second")
        engine.post_at(1.0, fired.append, "post-third")
        engine.run()
        assert fired == ["post-first", "handle-second", "post-third"]

    def test_post_rejects_past_and_nonfinite_times(self):
        engine = Engine()
        engine.post_at(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="before current time"):
            engine.post_at(0.5, lambda: None)
        with pytest.raises(SimulationError, match="must be finite"):
            engine.post_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError, match="must be finite"):
            engine.post_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError, match="non-negative"):
            engine.post_after(-1.0, lambda: None)

    def test_post_counts_in_pending_and_events_fired(self):
        engine = Engine()
        engine.post_at(1.0, lambda: None)
        engine.post_after(2.0, lambda: None)
        assert engine.pending == 2
        engine.run()
        assert engine.pending == 0
        assert engine.events_fired == 2

    def test_post_args_are_forwarded(self):
        engine = Engine()
        seen = []
        engine.post_at(1.0, lambda a, b, c: seen.append((a, b, c)), 1, "x", None)
        engine.run()
        assert seen == [(1, "x", None)]

    def test_drain_discards_posts_and_handles(self):
        engine = Engine()
        engine.post_at(1.0, lambda: None)
        handle = engine.call_at(2.0, lambda: None)
        engine.drain()
        assert engine.pending == 0
        assert engine._heap == []
        handle.cancel()  # late cancel after drain stays a no-op
        assert engine.pending == 0

    def test_fired_handle_reports_cancelled(self):
        engine = Engine()
        handle = engine.call_at(1.0, lambda: None)
        assert handle.fn is not None
        assert handle.args == ()
        engine.run()
        # Fired handles are marked consumed: fn/args read as cancelled.
        assert handle.cancelled
        assert handle.fn is None
        assert handle.when == 1.0

    def test_run_until_with_posts_only(self):
        engine = Engine()
        fired = []
        for i in range(5):
            engine.post_at(float(i), fired.append, i)
        assert engine.run(until=2.5) == 2.5
        assert fired == [0, 1, 2]
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_max_events_with_posts(self):
        engine = Engine()
        fired = []
        for i in range(5):
            engine.post_at(float(i), fired.append, i)
        engine.run(max_events=2)
        assert fired == [0, 1]


def _schedule(engine, entries, log):
    """Build one schedule on ``engine``; firing appends labels to ``log``.

    Each entry is ``(when, handle, cancel_now, child_delay, victim)``: a
    handle (or a plain post) at ``when``, cancelled before the run when
    ``cancel_now``; when it fires it posts a child ``child_delay`` later
    (if given) and cancels the ``victim``-th entry (if that is a handle).
    """
    handles = []

    def fire(i, child_delay, victim):
        log.append((i, engine.now))
        if child_delay is not None:
            engine.post_after(child_delay, log.append, (i, "child"))
        if victim is not None and victim < len(handles) and handles[victim] is not None:
            handles[victim].cancel()

    for i, (when, handle, _, child_delay, victim) in enumerate(entries):
        if handle:
            handles.append(engine.call_at(when, fire, i, child_delay, victim))
        else:
            engine.post_at(when, fire, i, child_delay, victim)
            handles.append(None)
    for h, (_, _, cancel_now, _, _) in zip(handles, entries):
        if h is not None and cancel_now:
            h.cancel()


def _state(engine, log, stopped):
    return (list(log), stopped, engine.now, engine.pending, engine._stale,
            engine.events_fired)


_TIMES = st.one_of(
    st.sampled_from((0.0, 1.0, 2.5, 5.0, 5.0, 10.0)), st.floats(0.0, 20.0)
)


class TestBudgetFreeRun:
    """``run`` without a budget fires exactly what a huge budget fires."""

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                _TIMES,
                st.booleans(),
                st.booleans(),
                st.one_of(st.none(), st.sampled_from((0.0, 0.5, 5.0))),
                st.one_of(st.none(), st.integers(0, 150)),
            ),
            max_size=150,
        ),
        until=st.one_of(st.none(), st.sampled_from((0.0, 2.5, 5.0, 10.0, 30.0)),
                        st.floats(0.0, 20.0)),
    )
    def test_matches_the_budgeted_loop(self, entries, until):
        states = []
        for budget in (None, 10**9):
            engine = Engine()
            log = []
            _schedule(engine, entries, log)
            first = _state(engine, log, engine.run(until=until, max_events=budget))
            # Then drain what is left: the no-``until`` case.
            second = _state(engine, log, engine.run(max_events=budget))
            states.append((first, second))
        assert states[0] == states[1]

    def test_cancelled_heads_on_both_sides_of_until(self):
        engine = Engine()
        fired = []
        early = engine.call_at(1.0, fired.append, "early")
        engine.post_at(2.0, fired.append, "at")
        engine.post_at(2.5, fired.append, "next")
        late = engine.call_at(3.0, fired.append, "late")
        engine.post_at(4.0, fired.append, "after")
        early.cancel()
        late.cancel()
        assert engine.run(until=2.0) == 2.0
        assert fired == ["at"]
        # The cancelled head before ``until`` was popped; the one behind
        # the first live event past ``until`` stays in the heap.
        assert engine._stale == 1
        assert engine.pending == 2
        engine.post_at(3.0, fired.append, "at3")
        assert engine.run(until=3.0) == 3.0
        assert fired == ["at", "next", "at3"]
        # The cancelled handle at ``until`` is popped on the way to the
        # live event at the same time.
        assert engine._stale == 0
        assert engine.pending == 1
        assert engine.run() == 4.0
        assert fired == ["at", "next", "at3", "after"]
        assert engine.events_fired == 4
