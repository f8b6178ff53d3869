"""Property-based tests: arbitration invariants under random schedules."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduling import MultiplexArbiter

KEYS = ("a", "b", "c", "d")


@st.composite
def arbiter_scripts(draw):
    """A random sequence of arbiter operations with advancing time."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["acquire", "release", "eligible", "charge", "priority", "peek"]
                ),
                st.sampled_from(KEYS),
                st.floats(0.0, 10.0),
            ),
            min_size=1,
            max_size=120,
        )
    )
    return ops


class TestArbiterInvariants:
    @settings(max_examples=100, deadline=None)
    @given(arbiter_scripts())
    def test_at_most_one_owner_and_eligibility_respected(self, ops):
        arbiter = MultiplexArbiter()
        for key in KEYS:
            arbiter.add(key)
        now = 0.0
        for op, key, value in ops:
            now += 0.1
            if op == "acquire":
                was_free = arbiter.owner is None
                owner = arbiter.acquire(now)
                if owner is not None and was_free:
                    # A newly seated owner must have been eligible; a
                    # sitting owner's eligibility may be set arbitrarily
                    # (it only matters at the next seating).
                    assert arbiter.eligible_at(owner) <= now
            elif op == "release":
                arbiter.release(key)
            elif op == "eligible":
                arbiter.set_eligible_at(key, now + value)
            elif op == "charge":
                arbiter.charge(key, value)
            elif op == "priority":
                arbiter.set_priority(key, int(value))
            elif op == "peek":
                peeked = arbiter.peek(now)
                if arbiter.owner is not None:
                    assert peeked == arbiter.owner
            # Core invariant: never more than one owner (trivially true by
            # representation, so assert the owner is a registered key).
            assert arbiter.owner is None or arbiter.owner in KEYS
            # Usage never goes negative.
            for k in KEYS:
                assert arbiter.usage(k) >= 0.0

    @settings(max_examples=50, deadline=None)
    @given(arbiter_scripts())
    def test_priority_dominates_when_slot_free(self, ops):
        """Whenever acquire fills a free slot, no eligible candidate of
        strictly higher priority was passed over."""
        arbiter = MultiplexArbiter()
        for key in KEYS:
            arbiter.add(key)
        now = 0.0
        for op, key, value in ops:
            now += 0.1
            if op == "eligible":
                arbiter.set_eligible_at(key, now + value)
            elif op == "priority":
                arbiter.set_priority(key, int(value))
            elif op == "release":
                arbiter.release(key)
            elif op == "acquire":
                was_free = arbiter.owner is None
                owner = arbiter.acquire(now)
                if was_free and owner is not None:
                    for other in KEYS:
                        if other == owner:
                            continue
                        if arbiter.eligible_at(other) <= now:
                            assert arbiter.priority(other) <= arbiter.priority(owner)

    @settings(max_examples=100, deadline=None)
    @given(arbiter_scripts())
    def test_peek_then_grant_is_acquire(self, ops):
        """The supervisor's peek, ask, grant sequence seats whom acquire
        would, and leaves every usage bit for bit the same."""
        by_acquire, by_grant = MultiplexArbiter(), MultiplexArbiter()
        for key in KEYS:
            by_acquire.add(key)
            by_grant.add(key)
        now = 0.0
        for op, key, value in ops:
            now += 0.1
            for arbiter in (by_acquire, by_grant):
                if op == "release":
                    arbiter.release(key)
                elif op == "eligible":
                    arbiter.set_eligible_at(key, now + value)
                elif op == "charge":
                    arbiter.charge(key, value)
                elif op == "priority":
                    arbiter.set_priority(key, int(value))
            if op == "acquire":
                expected = by_acquire.acquire(now)
                if by_grant.owner is None:
                    candidate = by_grant.peek(now)
                    if candidate is not None:
                        by_grant.grant(candidate)
                assert by_grant.owner == expected
            assert [by_grant.usage(k) for k in KEYS] == [by_acquire.usage(k) for k in KEYS]
