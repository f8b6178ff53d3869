"""The MS Manners runtime inside the simulator.

This bridge hosts the full orchestration stack of sections 4.5 and 7.1 —
per-thread regulators, per-process supervisors, and the machine-wide
superintendent — against simulated time, and gives simulated applications
the paper's one-call interface: a regulated thread yields
:class:`MannersTestpoint` wherever a real application would call
``Testpoint(index, count, metrics)``, and the yield returns when the thread
may proceed.

Blocking semantics: a thread that yields a processed testpoint gives up the
machine-wide execution slot and is resumed only when (a) its mandated
suspension has elapsed and (b) the supervisor/superintendent pair select it
to run — time-multiplex isolation across all regulated threads of all
registered processes.  Lightweight (rapid successive) testpoints return on
the next event tick without giving up the slot.

The bridge also records a :class:`~repro.simos.trace.TestpointTrace` per
thread for the dynamic-behaviour figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.config import DEFAULT_CONFIG, MannersConfig
from repro.core.controller import TestpointDecision, ThreadRegulator
from repro.core.errors import MannersError, RegulationStateError
from repro.core.persistence import TargetStore
from repro.core.superintendent import Superintendent
from repro.core.supervisor import Supervisor
from repro.obs import lazy as obs_events
from repro.obs.lazy import scope_label
from repro.simos.effects import Effect
from repro.simos.engine import EventHandle
from repro.simos.kernel import Kernel, SimThread
from repro.simos.trace import TestpointTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["MannersTestpoint", "SetThreadPriority", "SimManners"]


@dataclass(slots=True)
class MannersTestpoint(Effect):
    """The paper's ``Testpoint(index, count, metrics)`` call.

    ``metrics`` are cumulative progress counters for metric set ``index``.
    The yield's result is the :class:`~repro.core.controller.TestpointDecision`.
    """

    metrics: tuple[float, ...]
    index: int = 0


@dataclass(slots=True)
class SetThreadPriority(Effect):
    """The library call by which a thread sets its relative priority.

    "The MS Manners library provides a function call by which each thread
    can set its priority relative to other threads." (section 7.1)
    """

    priority: int


class SimManners:
    """Supervisors + superintendent running on simulated time."""

    __slots__ = ("_kernel", "_config", "_telemetry", "_machine_wide", "_supervisors", "_superintendent", "_registration", "_waiting", "_parked_at", "_timer", "_time", "traces")

    def __init__(
        self,
        kernel: Kernel,
        config: MannersConfig = DEFAULT_CONFIG,
        machine_wide: bool = True,
        telemetry: "Telemetry | None" = None,
        time_source: Callable[[], float] | None = None,
    ) -> None:
        """``machine_wide=False`` gives every process its *own*
        superintendent, disabling cross-process time-multiplex isolation —
        the ablation for section 4.5 (mutually induced suspension).

        ``time_source`` replaces the kernel clock as the time the
        *regulation stack* observes (testpoint timestamps, eligibility,
        hung checks).  Real libraries read an OS clock that can step or
        leap independently of true time; the fault harness exploits this
        seam to feed regulators a skewed clock while the simulation's
        event engine keeps running on honest time.
        """
        self._kernel = kernel
        self._config = config
        self._time: Callable[[], float] = (
            time_source if time_source is not None else (lambda: kernel.now)
        )
        self._machine_wide = machine_wide
        self._telemetry = telemetry
        if telemetry is not None:
            # Engine tick-latency histogram: mean wall-clock cost per fired
            # event, sampled once per batch so the hot loop stays cheap.
            kernel.engine.attach_tick_observer(
                telemetry.metrics.histograms.engine_tick_latency.observe
            )
        self._superintendent = Superintendent(
            usage_decay=config.usage_decay, telemetry=telemetry
        )
        self._supervisors: dict[Hashable, Supervisor] = {}
        #: SimThread -> (supervisor, waiting decision delivery pending?)
        self._registration: dict[SimThread, Supervisor] = {}
        #: Threads parked in a testpoint, with the decision to deliver.
        self._waiting: dict[SimThread, TestpointDecision] = {}
        #: Telemetry-only: park time of each suspended thread, for
        #: suspension_ended events.
        self._parked_at: dict[SimThread, float] = {}
        self.traces: dict[SimThread, TestpointTrace] = {}
        self._timer: EventHandle | None = None
        kernel.register_handler(MannersTestpoint, self._on_testpoint_effect)
        kernel.register_handler(SetThreadPriority, self._on_set_priority)
        kernel.add_listener(self._on_thread_exit, exit_only=True)

    # -- registration -------------------------------------------------------------
    @property
    def superintendent(self) -> Superintendent:
        """The machine-wide process arbiter."""
        return self._superintendent

    def supervisor(self, process: Hashable) -> Supervisor:
        """The (lazily created) supervisor for a process."""
        sup = self._supervisors.get(process)
        if sup is None:
            boss = (
                self._superintendent
                if self._machine_wide
                else Superintendent(usage_decay=self._config.usage_decay)
            )
            sup = Supervisor(
                self._config,
                superintendent=boss,
                process_id=process,
                telemetry=(
                    None
                    if self._telemetry is None
                    else self._telemetry.scoped(scope_label(process))
                ),
            )
            self._supervisors[process] = sup
        return sup

    def regulate(
        self,
        thread: SimThread,
        priority: int = 0,
        config: MannersConfig | None = None,
        store: TargetStore | None = None,
        app_id: str | None = None,
        comparator=None,
    ) -> ThreadRegulator:
        """Enroll a simulated thread for regulation.

        The thread's kernel ``process`` attribute determines which
        supervisor (and thus which superintendent slot) it belongs to.
        With ``store``/``app_id`` (given together or not at all), persisted
        targets are loaded now and the regulator starts past bootstrap.  An
        unreadable target file, or a snapshot ``import_state`` rejects
        (which changes nothing), is not fatal: the regulator falls back to
        a fresh bootstrap (reported as a ``recovery`` event), matching the
        degraded-mode contract of ``docs/robustness.md``.
        """
        if (app_id is None) != (store is None):
            raise ValueError("app_id and store must be provided together")
        if thread in self._registration:
            raise RegulationStateError(f"thread {thread!r} already regulated")
        sup = self.supervisor(thread.process)
        regulator = sup.register_thread(
            thread, priority=priority, config=config, comparator=comparator
        )
        if store is not None:
            quarantined_before = len(store.quarantined)
            try:
                persisted = store.load(app_id)
                if persisted is not None:
                    regulator.import_state(persisted)
                elif len(store.quarantined) > quarantined_before:
                    self._note_load_failure(thread, app_id, "target file quarantined")
            except MannersError as exc:
                self._note_load_failure(thread, app_id, str(exc))
        self._registration[thread] = sup
        self.traces[thread] = TestpointTrace()
        return regulator

    def _note_load_failure(
        self, thread: SimThread, app_id: str, detail: str
    ) -> None:
        """Report a failed target load and the rebootstrap fallback."""
        tel = self._telemetry
        if tel is None:
            return
        now = self._kernel.now
        tel.tick(now)
        tel.emit(
            obs_events.RecoveryAction(
                t=now,
                src=scope_label(thread),
                action="rebootstrap",
                detail=f"{app_id}: {detail}",
            )
        )
        tel.metrics.counters.target_load_fallbacks.inc()

    def regulator(self, thread: SimThread) -> ThreadRegulator:
        """The regulator of an enrolled thread."""
        sup = self._registration.get(thread)
        if sup is None:
            raise RegulationStateError(f"thread {thread!r} is not regulated")
        return sup.regulator(thread)

    # -- effect handlers -----------------------------------------------------------
    def _on_testpoint_effect(self, thread: SimThread, effect: Effect) -> None:
        assert isinstance(effect, MannersTestpoint)
        sup = self._registration.get(thread)
        if sup is None:
            raise RegulationStateError(
                f"thread {thread.name!r} yielded a testpoint but is not "
                "regulated; call SimManners.regulate() first"
            )
        now = self._time()
        decision = sup.on_testpoint(now, thread, effect.index, effect.metrics)
        trace = self.traces[thread]
        if decision.processed:
            trace.record(
                now,
                decision.duration,
                decision.target_duration,
                decision.judgment,
                decision.delay,
            )
        if not decision.processed:
            # Lightweight path: continue on the next tick, keeping the slot.
            thread.blocked_on = "manners-light"
            self._kernel.engine.post_after(0.0, self._kernel.deliver, thread, decision)
            return
        # Processed: the thread gave up the slot inside on_testpoint and is
        # eligible again after its delay.  Park it until arbitration
        # selects it.
        thread.blocked_on = "manners"
        self._waiting[thread] = decision
        if self._telemetry is not None and decision.delay > 0.0:
            self._parked_at[thread] = now
        self._pump()

    def _on_set_priority(self, thread: SimThread, effect: Effect) -> None:
        assert isinstance(effect, SetThreadPriority)
        sup = self._registration.get(thread)
        if sup is None:
            raise RegulationStateError(f"thread {thread!r} is not regulated")
        sup.set_thread_priority(thread, effect.priority)
        thread.blocked_on = "manners-light"
        self._kernel.engine.post_after(0.0, self._kernel.deliver, thread, None)

    def _on_thread_exit(self, kind: str, thread: SimThread, now: float) -> None:
        """Release a regulated thread's slot when it exits."""
        sup = self._registration.pop(thread, None)
        if sup is None:
            return
        self._waiting.pop(thread, None)
        self._parked_at.pop(thread, None)
        sup.unregister_thread(thread)
        if thread.error is not None and self._telemetry is not None:
            # A crashed thread (vs. a normal exit) had its slot reclaimed;
            # record the recovery so chaos traces show the fault absorbed.
            tel = self._telemetry
            tel.tick(now)
            tel.emit(
                obs_events.RecoveryAction(
                    t=now,
                    src=scope_label(thread),
                    action="slot_released",
                    detail=f"thread exited with {type(thread.error).__name__}",
                )
            )
            tel.metrics.counters.slots_released_on_crash.inc()
        self._pump()

    # -- arbitration pump --------------------------------------------------------------
    def _pump(self) -> None:
        """Seat eligible threads and schedule the next wake-up.

        All regulation-facing times (eligibility, hung checks) are in the
        regulation clock's frame (``self._time``); only the timer itself is
        scheduled on honest engine time, converting via the current offset.
        """
        now = self._time()
        released = True
        while released:
            released = False
            for sup in self._supervisors.values():
                evicted = sup.check_hung(now)
                if evicted is not None and evicted in self._waiting:
                    # An evicted-but-waiting thread cannot happen: eviction
                    # targets the slot owner, which is never parked.  Guard
                    # anyway for state-machine safety.
                    continue
                owner = sup.poll(now)
                if owner is not None and owner in self._waiting:
                    decision = self._waiting.pop(owner)
                    tel = self._telemetry
                    if tel is not None:
                        parked = self._parked_at.pop(owner, None)
                        if parked is not None:
                            tel.tick(now)
                            tel.emit(
                                obs_events.SuspensionEnded(
                                    t=now,
                                    src=scope_label(owner),
                                    slept=now - parked,
                                )
                            )
                    owner.blocked_on = "manners-released"
                    self._kernel.engine.post_after(
                        0.0, self._kernel.deliver, owner, decision
                    )
                    released = True
        self._schedule_wakeup(now)

    def _schedule_wakeup(self, now: float) -> None:
        if not self._waiting:
            return
        wakes = []
        for sup in self._supervisors.values():
            when = sup.next_wake_time(now)
            if when is not None:
                wakes.append(when)
        token_wake = self._superintendent.next_eligible_time(now)
        if token_wake is not None:
            wakes.append(token_wake)
        if not wakes:
            # Someone is eligible right now but could not be seated (the
            # token is held elsewhere); re-check shortly after the next
            # event. A small poll keeps the bridge simple and costs little.
            wakes.append(now + self._config.min_testpoint_interval)
        when = min(wakes)
        # ``when`` is in the regulation clock's frame; translate into the
        # engine's frame through the current offset (both clocks advance at
        # the same rate between injected steps).
        kernel_when = self._kernel.now + max(when - now, 0.0)
        if self._timer is not None:
            if self._timer.when <= kernel_when and not self._timer.cancelled:
                return
            self._timer.cancel()
        self._timer = self._kernel.engine.call_at(kernel_when, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self._pump()
