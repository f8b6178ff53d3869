"""Decay-usage arbitration (section 4.5 / 7.1)."""

from __future__ import annotations

import math

import pytest

from repro.core.errors import RegulationStateError
from repro.core.scheduling import MultiplexArbiter


class TestMembership:
    def test_add_remove(self):
        arb = MultiplexArbiter()
        arb.add("a")
        assert "a" in arb
        arb.remove("a")
        assert "a" not in arb

    def test_double_add_rejected(self):
        arb = MultiplexArbiter()
        arb.add("a")
        with pytest.raises(RegulationStateError):
            arb.add("a")

    def test_remove_owner_frees_slot(self):
        arb = MultiplexArbiter()
        arb.add("a")
        assert arb.acquire(0.0) == "a"
        arb.remove("a")
        assert arb.owner is None

    def test_unknown_key_rejected(self):
        arb = MultiplexArbiter()
        with pytest.raises(RegulationStateError):
            arb.set_priority("ghost", 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda arb: arb.set_eligible_at("ghost", 1.0),
            lambda arb: arb.eligible_at("ghost"),
            lambda arb: arb.charge("ghost", 1.0),
            lambda arb: arb.grant("ghost"),
            lambda arb: arb.remove("ghost"),
        ],
        ids=["set_eligible_at", "eligible_at", "charge", "grant", "remove"],
    )
    def test_every_accessor_rejects_an_unknown_key(self, call):
        arb = MultiplexArbiter()
        with pytest.raises(RegulationStateError, match="unknown candidate 'ghost'"):
            call(arb)


class TestArbitration:
    def test_single_candidate_wins(self):
        arb = MultiplexArbiter()
        arb.add("a")
        assert arb.acquire(0.0) == "a"
        assert arb.owner == "a"

    def test_owner_is_sticky(self):
        arb = MultiplexArbiter()
        arb.add("a")
        arb.add("b")
        assert arb.acquire(0.0) == "a"
        assert arb.acquire(1.0) == "a"  # still owned

    def test_priority_wins(self):
        arb = MultiplexArbiter()
        arb.add("low", priority=0)
        arb.add("high", priority=5)
        assert arb.acquire(0.0) == "high"

    def test_eligibility_gates(self):
        arb = MultiplexArbiter()
        arb.add("a")
        arb.set_eligible_at("a", 10.0)
        assert arb.acquire(5.0) is None
        assert arb.acquire(10.0) == "a"

    def test_usage_breaks_ties(self):
        arb = MultiplexArbiter()
        arb.add("a")
        arb.add("b")
        arb.charge("a", 100.0)
        assert arb.acquire(0.0) == "b"

    def test_usage_decays(self):
        arb = MultiplexArbiter(usage_decay=0.5)
        arb.add("a")
        arb.add("b")
        arb.charge("a", 8.0)
        # Each acquire decays all usage by 0.5.
        for _ in range(10):
            owner = arb.acquire(0.0)
            arb.release(owner)
        assert arb.usage("a") < 0.1

    def test_admission_order_final_tiebreak(self):
        arb = MultiplexArbiter()
        arb.add("first")
        arb.add("second")
        assert arb.acquire(0.0) == "first"

    def test_release_by_non_owner_is_noop(self):
        arb = MultiplexArbiter()
        arb.add("a")
        arb.add("b")
        arb.acquire(0.0)
        arb.release("b")
        assert arb.owner == "a"

    def test_negative_charge_rejected(self):
        arb = MultiplexArbiter()
        arb.add("a")
        with pytest.raises(ValueError):
            arb.charge("a", -1.0)

    @pytest.mark.parametrize("amount", [math.nan, math.inf])
    def test_non_finite_charge_rejected(self, amount):
        arb = MultiplexArbiter()
        arb.add("a")
        arb.charge("a", 2.0)
        with pytest.raises(ValueError, match="finite"):
            arb.charge("a", amount)
        assert arb.usage("a") == 2.0


class TestPeekAndWake:
    def test_peek_does_not_mutate(self):
        arb = MultiplexArbiter()
        arb.add("a")
        assert arb.peek(0.0) == "a"
        assert arb.owner is None

    def test_peek_returns_owner_when_held(self):
        arb = MultiplexArbiter()
        arb.add("a")
        arb.add("b")
        arb.acquire(0.0)
        assert arb.peek(0.0) == "a"

    def test_grant_seats_and_decays(self):
        arb = MultiplexArbiter(usage_decay=0.5)
        arb.add("a")
        arb.add("b")
        arb.charge("b", 4.0)
        arb.grant("b")
        assert arb.owner == "b"
        assert arb.usage("b") == 2.0

    def test_grant_refuses_a_held_slot(self):
        arb = MultiplexArbiter()
        arb.add("a")
        arb.add("b")
        arb.acquire(0.0)
        with pytest.raises(RegulationStateError, match="held"):
            arb.grant("b")
        assert arb.owner == "a"

    def test_next_eligible_time(self):
        arb = MultiplexArbiter()
        arb.add("a")
        arb.add("b")
        arb.set_eligible_at("a", 10.0)
        arb.set_eligible_at("b", 20.0)
        assert arb.next_eligible_time(0.0) == 10.0

    def test_next_eligible_none_when_someone_ready(self):
        arb = MultiplexArbiter()
        arb.add("a")
        assert arb.next_eligible_time(0.0) is None

    def test_next_eligible_ignores_owner(self):
        arb = MultiplexArbiter()
        arb.add("a")
        arb.acquire(0.0)
        assert arb.next_eligible_time(0.0) is None  # no other candidates


class TestFairness:
    def test_round_robin_emerges_from_decay_usage(self):
        """Equal-priority candidates share the slot roughly equally."""
        arb = MultiplexArbiter(usage_decay=0.9)
        for name in ("a", "b", "c"):
            arb.add(name)
        counts = {"a": 0, "b": 0, "c": 0}
        now = 0.0
        for _ in range(300):
            owner = arb.acquire(now)
            counts[owner] += 1
            arb.charge(owner, 1.0)
            arb.release(owner)
            now += 1.0
        assert max(counts.values()) - min(counts.values()) <= 10
