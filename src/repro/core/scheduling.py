"""Decay-usage arbitration for time-multiplex isolation (paper section 4.5).

If several low-importance threads ran concurrently they would contend with
*each other*, depressing each other's progress rates and driving mutual
exponential suspension — unfair and potentially unstable.  MS Manners
therefore lets only one low-importance thread (machine-wide, one process)
execute at a time, multiplexing among them.

:class:`MultiplexArbiter` is the pure arbitration primitive used at both
levels: the per-process supervisor arbitrates its regulated threads, and the
machine-wide superintendent arbitrates processes.  Candidates have a
priority (higher wins; the paper's supervisor "favors high-priority threads
over low-priority threads") and, within a priority level, execution time is
shared by *decay usage scheduling* (Hellerstein '93, cited in section 7.1):
each candidate accrues usage while it owns the slot, usage decays
geometrically at every arbitration decision, and the least-used eligible
candidate wins.

The arbiter is time-fed, never time-reading: callers pass ``now`` into every
method, so the same code serves the simulator and wall-clock substrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterator

from repro.core.errors import ConfigError, RegulationStateError

__all__ = ["CandidateState", "MultiplexArbiter"]

_INF = math.inf


@dataclass(slots=True)
class CandidateState:
    """Arbitration state of one candidate (thread or process)."""

    priority: int = 0
    #: Earliest time the candidate may own the slot (end of its suspension).
    eligible_at: float = -math.inf
    #: Decayed execution usage; lower wins within a priority level.
    usage: float = 0.0
    #: Monotone admission order; breaks exact ties deterministically.
    order: int = 0


class MultiplexArbiter:
    """At-most-one-owner arbitration with priority and decay usage."""

    __slots__ = ("_candidates", "_decay", "_next_order", "owner")

    def __init__(self, usage_decay: float = 0.9) -> None:
        if not 0.0 < usage_decay < 1.0:
            raise ConfigError(f"usage_decay must be in (0, 1), got {usage_decay}")
        self._decay = usage_decay
        self._candidates: dict[Hashable, CandidateState] = {}
        #: The candidate currently holding the slot, if any.  A plain
        #: attribute for cheap reads; only the arbiter writes it.
        self.owner: Hashable | None = None
        self._next_order = 0

    # -- membership --------------------------------------------------------------
    def add(self, key: Hashable, priority: int = 0) -> None:
        """Admit a candidate.  Re-adding an existing key is an error."""
        if key in self._candidates:
            raise RegulationStateError(f"candidate {key!r} already registered")
        self._candidates[key] = CandidateState(priority=priority, order=self._next_order)
        self._next_order += 1

    def remove(self, key: Hashable) -> None:
        """Withdraw a candidate; frees the slot if it was the owner."""
        if key not in self._candidates:
            raise _unknown(key)
        del self._candidates[key]
        if self.owner == key:
            self.owner = None

    def __contains__(self, key: Hashable) -> bool:
        return key in self._candidates

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._candidates)

    def __len__(self) -> int:
        return len(self._candidates)

    # -- candidate attributes -------------------------------------------------------
    def set_priority(self, key: Hashable, priority: int) -> None:
        """Change a candidate's priority (takes effect at the next decision)."""
        self._state(key).priority = priority

    def priority(self, key: Hashable) -> int:
        """The candidate's current priority."""
        return self._state(key).priority

    # The three below run on every processed testpoint, so they index the
    # candidates directly instead of calling _state.
    def set_eligible_at(self, key: Hashable, when: float) -> None:
        """Set the earliest time the candidate may own the slot."""
        try:
            self._candidates[key].eligible_at = when
        except KeyError:
            raise _unknown(key) from None

    def eligible_at(self, key: Hashable) -> float:
        """The candidate's earliest ownership time."""
        try:
            return self._candidates[key].eligible_at
        except KeyError:
            raise _unknown(key) from None

    def charge(self, key: Hashable, amount: float) -> None:
        """Accrue execution usage against a candidate."""
        if not 0 <= amount < _INF:
            raise ValueError(f"usage charge must be finite and non-negative, got {amount}")
        try:
            self._candidates[key].usage += amount
        except KeyError:
            raise _unknown(key) from None

    def usage(self, key: Hashable) -> float:
        """The candidate's decayed usage."""
        return self._state(key).usage

    # -- arbitration -------------------------------------------------------------------
    def release(self, key: Hashable) -> None:
        """The owner relinquishes the slot (idempotent for non-owners)."""
        if self.owner == key:
            self.owner = None

    def acquire(self, now: float) -> Hashable | None:
        """Assign the slot to the best eligible candidate, if it is free.

        :meth:`peek` followed by :meth:`grant`.  Returns the (possibly
        pre-existing) owner, or ``None`` when the slot stays empty.
        """
        if self.owner is not None:
            return self.owner
        best = self.peek(now)
        if best is not None:
            self.grant(best)
        return best

    def grant(self, key: Hashable) -> None:
        """Seat ``key`` in the free slot: one decision step.

        Decays every candidate's usage, then makes ``key`` the owner.
        ``key`` is the candidate :meth:`peek` just named; a caller that
        must ask elsewhere before committing (the supervisor asks the
        superintendent) peeks, asks, then grants, scanning once.
        """
        if self.owner is not None:
            raise RegulationStateError(f"slot is held by {self.owner!r}")
        if key not in self._candidates:
            raise _unknown(key)
        decay = self._decay
        for state in self._candidates.values():
            state.usage *= decay
        self.owner = key

    def peek(self, now: float) -> Hashable | None:
        """Return the candidate :meth:`acquire` would pick, without mutating.

        That is the eligible candidate with the highest priority, ties
        broken by lowest usage and then admission order, or the current
        owner when the slot is held.
        """
        if self.owner is not None:
            return self.owner
        best: Hashable | None = None
        best_key: tuple[float, float, int] | None = None
        for key, state in self._candidates.items():
            if state.eligible_at > now:
                continue
            rank = (-state.priority, state.usage, state.order)
            if best_key is None or rank < best_key:
                best = key
                best_key = rank
        return best

    def next_eligible_time(self, now: float) -> float | None:
        """Earliest future time a non-owner candidate becomes eligible.

        Returns ``None`` when a candidate is already eligible (the slot can
        be filled at ``now``) or when there are no candidates at all.
        Substrates use this to schedule their wake-up timer.
        """
        earliest: float | None = None
        owner = self.owner
        for key, state in self._candidates.items():
            if key == owner:
                continue
            if state.eligible_at <= now:
                return None
            if earliest is None or state.eligible_at < earliest:
                earliest = state.eligible_at
        return earliest

    # -- internals -----------------------------------------------------------------------
    def _state(self, key: Hashable) -> CandidateState:
        try:
            return self._candidates[key]
        except KeyError:
            raise _unknown(key) from None


def _unknown(key: Hashable) -> RegulationStateError:
    return RegulationStateError(f"unknown candidate {key!r}")
