"""Clock abstraction."""

from __future__ import annotations

import math

import pytest

from repro.core.clock import Clock, ManualClock, MonotonicClock
from repro.core.errors import ClockError


class TestManualClock:
    def test_starts_at_given_time(self):
        assert ManualClock(5.0).now() == 5.0

    def test_advance(self, clock):
        clock.advance(2.5)
        clock.advance(0.5)
        assert clock.now() == 3.0

    def test_advance_rejects_negative(self, clock):
        with pytest.raises(ClockError):
            clock.advance(-0.1)

    def test_set_rejects_backwards(self, clock):
        clock.set(10.0)
        with pytest.raises(ClockError):
            clock.set(9.0)

    def test_set_same_time_allowed(self, clock):
        clock.set(3.0)
        assert clock.set(3.0) == 3.0

    def test_rejects_non_finite(self):
        with pytest.raises(ClockError):
            ManualClock(math.nan)
        with pytest.raises(ClockError):
            ManualClock().advance(math.inf)

    def test_satisfies_protocol(self, clock):
        assert isinstance(clock, Clock)


class TestMonotonicClock:
    def test_non_decreasing(self):
        clock = MonotonicClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_satisfies_protocol(self):
        assert isinstance(MonotonicClock(), Clock)
