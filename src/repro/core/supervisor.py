"""Per-process supervisor: time-multiplex isolation of regulated threads.

The paper's library spins up one supervisor thread per process
(section 7.1).  Every regulated application thread records its progress at a
testpoint and then waits for the supervisor to signal it to proceed; the
supervisor releases at most one thread at a time, chosen by priority and
decay-usage scheduling, and defers to the machine-wide superintendent before
releasing anyone.

This module implements the supervisor as a pure decision engine.  The
embedding substrate (simulator bridge or realtime adapter) owns the actual
blocking and waking; it drives the supervisor through three calls:

* :meth:`Supervisor.on_testpoint` — a thread reported progress; returns the
  thread's :class:`~repro.core.controller.TestpointDecision` (lightweight
  calls pass straight through without giving up the execution slot).
* :meth:`Supervisor.poll` — (re)assign the execution slot; returns the
  thread that may now run, or ``None``.
* :meth:`Supervisor.next_wake_time` — when to poll again if nobody is
  eligible yet.

A thread may proceed from its testpoint exactly when it is past its
regulator-mandated suspension *and* it holds the execution slot (and,
transitively, its process holds the superintendent token).

Hung threads (section 7.1): if the slot owner fails to testpoint within the
hung threshold, :meth:`check_hung` evicts it so another thread can run; the
evicted thread's eventual testpoint is discarded by its regulator (the
interval exceeds the same threshold) and it simply re-queues for the slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.core.comparator import RateComparator
from repro.core.config import DEFAULT_CONFIG, MannersConfig
from repro.core.controller import TestpointDecision, ThreadRegulator
from repro.core.errors import MetricError, RegulationStateError
from repro.core.scheduling import MultiplexArbiter
from repro.core.superintendent import Superintendent
from repro.obs import lazy as obs_events
from repro.obs.lazy import scope_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["Supervisor", "ThreadRecord"]

_INF = math.inf


@dataclass(slots=True)
class ThreadRecord:
    """Supervisor-side state for one regulated thread."""

    regulator: ThreadRegulator
    #: The thread's event label, built once at registration.
    label: str
    #: Time of the thread's most recent processed testpoint.
    last_testpoint: float = -math.inf
    #: Time the thread was last released to run (for usage charging).
    released_at: float | None = None
    #: Whether the thread was evicted as hung and has not yet returned.
    hung: bool = False
    #: Learned release-to-testpoint spacing (exponential average); the
    #: watchdog's notion of how long this thread normally runs between
    #: testpoints.  ``None`` until the first observed interval.
    spacing_ema: float | None = None


class Supervisor:
    """Arbitrates the execution slot among one process's regulated threads."""

    __slots__ = ("_config", "_threads", "_arbiter", "_superintendent", "_telemetry", "_pid", "_label")

    def __init__(
        self,
        config: MannersConfig = DEFAULT_CONFIG,
        superintendent: Superintendent | None = None,
        process_id: Hashable = "process",
        process_priority: int = 0,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self._config = config
        self._arbiter = MultiplexArbiter(usage_decay=config.usage_decay)
        self._threads: dict[Hashable, ThreadRecord] = {}
        self._superintendent = superintendent
        self._pid = process_id
        #: The process's event label, built once.
        self._label = scope_label(process_id)
        self._telemetry = telemetry
        if superintendent is not None and process_id not in superintendent:
            superintendent.register_process(process_id, priority=process_priority)

    # -- membership ----------------------------------------------------------------
    @property
    def config(self) -> MannersConfig:
        """The supervisor's (and its regulators' default) configuration."""
        return self._config

    @property
    def process_id(self) -> Hashable:
        """Identity under which this process is registered machine-wide."""
        return self._pid

    def register_thread(
        self,
        tid: Hashable,
        priority: int = 0,
        config: MannersConfig | None = None,
        comparator: "RateComparator | None" = None,
    ) -> ThreadRegulator:
        """Admit a thread for regulation; returns its fresh regulator.

        ``comparator`` overrides the statistical rate comparator (used by
        the direct-comparison ablation).
        """
        if tid in self._threads:
            raise RegulationStateError(f"thread {tid!r} already registered")
        tel = self._telemetry
        label = scope_label(tid)
        regulator = ThreadRegulator(
            config or self._config,
            comparator=comparator,
            telemetry=None if tel is None else tel.scoped(label),
        )
        self._threads[tid] = ThreadRecord(regulator=regulator, label=label)
        self._arbiter.add(tid, priority=priority)
        return regulator

    def unregister_thread(self, tid: Hashable) -> None:
        """Withdraw a thread (at its exit); frees the slot if it held it."""
        self._record(tid)
        del self._threads[tid]
        self._arbiter.remove(tid)

    def set_thread_priority(self, tid: Hashable, priority: int) -> None:
        """The paper's relative-priority library call (section 7.1)."""
        self._record(tid)
        self._arbiter.set_priority(tid, priority)

    def thread_ids(self) -> tuple[Hashable, ...]:
        """Registered thread identities."""
        return tuple(self._threads)

    def regulator(self, tid: Hashable) -> ThreadRegulator:
        """The per-thread regulator."""
        return self._record(tid).regulator

    # -- the testpoint path -------------------------------------------------------------
    def on_testpoint(
        self, now: float, tid: Hashable, index: int, counters: Sequence[float]
    ) -> TestpointDecision:
        """Process thread ``tid``'s testpoint.

        On a processed (non-lightweight) testpoint the thread gives up the
        execution slot and becomes eligible again after its mandated delay;
        call :meth:`poll` afterwards to find out who runs next.  Lightweight
        calls return immediately and the thread keeps the slot.
        """
        record = self._threads.get(tid)
        if record is None:
            raise RegulationStateError(f"unknown thread {tid!r}")
        decision = record.regulator.on_testpoint(now, index, counters)
        if not decision.processed:
            return decision
        # Charge the run interval to both arbitration levels.
        if record.released_at is not None:
            used = max(now - record.released_at, 0.0)
            self._arbiter.charge(tid, used)
            if self._superintendent is not None:
                self._superintendent.charge(self._pid, used)
            # Teach the watchdog this thread's normal testpoint spacing.
            if record.spacing_ema is None:
                record.spacing_ema = used
            else:
                record.spacing_ema = 0.7 * record.spacing_ema + 0.3 * used
        record.last_testpoint = now
        record.released_at = None
        record.hung = False
        self._arbiter.set_eligible_at(tid, now + decision.delay)
        self._arbiter.release(tid)
        # Every processed testpoint is also a machine-wide arbitration
        # point: give the superintendent token back (staying in passive
        # contention from now) so decay usage can share execution time
        # among processes, not just among this process's threads.
        if self._superintendent is not None:
            self._superintendent.release(self._pid, now, until=now)
        return decision

    def poll(self, now: float) -> Hashable | None:
        """(Re)assign the execution slot; return the thread that may run.

        Respects the superintendent: the slot is only filled while this
        process holds the machine-wide token.  When no thread is eligible,
        the token is released (with a hint for when this process next wants
        it) so other processes can run.
        """
        current = self._arbiter.owner
        if current is not None:
            return current
        candidate = self._arbiter.peek(now)
        if candidate is None:
            if self._superintendent is not None:
                hint = self._arbiter.next_eligible_time(now)
                self._superintendent.release(self._pid, now, until=hint)
            return None
        if self._superintendent is not None and not self._superintendent.acquire(
            self._pid, now
        ):
            return None
        # The superintendent has its own arbiter, so the candidate peeked
        # above is still the one acquire would pick.
        self._arbiter.grant(candidate)
        record = self._threads[candidate]
        record.released_at = now
        tel = self._telemetry
        if tel is not None:
            tel.tick(now)
            tel.metrics.counters.slot_grants.inc()
            if tel.emitting:
                tel.emit(
                    obs_events.SlotGranted(
                        t=now,
                        src=tel.label,
                        process=self._label,
                        thread=record.label,
                    )
                )
        return candidate

    @property
    def running(self) -> Hashable | None:
        """The thread currently holding this process's execution slot."""
        return self._arbiter.owner

    def next_wake_time(self, now: float) -> float | None:
        """When to poll again: the earliest pending thread eligibility.

        ``None`` means either a thread is eligible right now (poll
        immediately) or there are no waiting threads at all; disambiguate
        with :meth:`poll`.
        """
        return self._arbiter.next_eligible_time(now)

    def next_poll_time(self, now: float) -> float | None:
        """Like :meth:`next_wake_time`, but also accounting for the
        superintendent's retry time (a polling token, e.g. the cross-
        process file token, has no way to push a notification)."""
        candidates = []
        thread_wake = self._arbiter.next_eligible_time(now)
        if thread_wake is not None and math.isfinite(thread_wake):
            candidates.append(thread_wake)
        if self._superintendent is not None:
            token_wake = self._superintendent.next_eligible_time(now)
            if token_wake is not None and math.isfinite(token_wake):
                candidates.append(token_wake)
        return min(candidates) if candidates else None

    # -- hung-thread handling --------------------------------------------------------------
    def watchdog_threshold(self, tid: Hashable) -> float:
        """Stall threshold the watchdog applies to ``tid``, in seconds.

        With ``watchdog_multiplier`` disabled (0, the default) or no
        learned spacing yet this is simply the hung threshold; otherwise
        it is ``watchdog_multiplier`` times the thread's learned
        testpoint spacing, floored at ``min_testpoint_interval`` and
        capped at the hung threshold.
        """
        record = self._record(tid)
        threshold = self._config.hung_threshold
        multiplier = self._config.watchdog_multiplier
        if multiplier > 0.0 and record.spacing_ema is not None:
            learned = max(
                multiplier * record.spacing_ema,
                self._config.min_testpoint_interval,
            )
            threshold = min(threshold, learned)
        return threshold

    def check_hung(self, now: float) -> Hashable | None:
        """Evict the slot owner if it has not testpointed within threshold.

        Returns the evicted thread, or ``None``.  The substrate should call
        this from its wake timer; after an eviction, :meth:`poll` will seat
        another thread.

        The threshold is :meth:`watchdog_threshold`: normally the hung
        threshold of section 7.1, but with ``watchdog_multiplier``
        enabled a thread stalled for that multiple of its own learned
        testpoint spacing is evicted early — and its regulator is told to
        discard the interval (the regulator's own hung discard only
        covers gaps beyond the full hung threshold).

        Raises:
            MetricError: ``now`` is not finite (raised before any state
                changes; a NaN would evict a healthy owner and charge it
                NaN usage).
        """
        if not -_INF < now < _INF:
            raise MetricError(f"watchdog time is not finite: {now}")
        owner = self._arbiter.owner
        if owner is None:
            return None
        record = self._threads[owner]
        started = record.released_at if record.released_at is not None else record.last_testpoint
        threshold = self.watchdog_threshold(owner)
        stalled_for = now - started
        if stalled_for <= threshold:
            return None
        record.hung = True
        watchdog = threshold < self._config.hung_threshold
        if watchdog:
            # Below the hung threshold the regulator would happily measure
            # the stall as a slow interval; tell it to discard instead.
            record.regulator.discard_next_interval("watchdog_stall")
        tel = self._telemetry
        if tel is not None:
            tel.tick(now)
            tel.metrics.counters.slot_evictions.inc()
            tel.emit(
                obs_events.SlotEvicted(
                    t=now,
                    src=tel.label,
                    process=self._label,
                    thread=record.label,
                    idle_for=stalled_for,
                )
            )
            ctx = tel.trace_ctx if tel.emitting else None
            if ctx is not None:
                tel.emit(
                    obs_events.Span(
                        t=now,
                        src=tel.label,
                        span_id=ctx.new_id(),
                        name="watchdog_eviction",
                        attrs={
                            "process": self._label,
                            "thread": record.label,
                            "idle_for": stalled_for,
                            "threshold": threshold,
                            "watchdog": watchdog,
                        },
                    )
                )
            if watchdog:
                tel.metrics.counters.watchdog_evictions.inc()
                tel.emit(
                    obs_events.AnomalyDetected(
                        t=now,
                        src=tel.label,
                        anomaly="watchdog_stall",
                        value=stalled_for,
                        detail=record.label,
                    )
                )
                tel.emit(
                    obs_events.RecoveryAction(
                        t=now,
                        src=tel.label,
                        action="watchdog_release",
                        detail=record.label,
                    )
                )
        if record.released_at is not None:
            used = max(now - record.released_at, 0.0)
            self._arbiter.charge(owner, used)
            if self._superintendent is not None:
                self._superintendent.charge(self._pid, used)
        record.released_at = None
        # A hung thread is out of contention until it testpoints again
        # (its next on_testpoint restores eligibility); otherwise the
        # freed slot could be handed straight back to it.
        self._arbiter.set_eligible_at(owner, math.inf)
        self._arbiter.release(owner)
        return owner

    def is_hung(self, tid: Hashable) -> bool:
        """Whether ``tid`` is currently presumed hung."""
        return self._record(tid).hung

    # -- internals --------------------------------------------------------------------------
    def _record(self, tid: Hashable) -> ThreadRecord:
        try:
            return self._threads[tid]
        except KeyError:
            raise RegulationStateError(f"unknown thread {tid!r}") from None
