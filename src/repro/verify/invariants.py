"""Runtime invariant checkers for the regulation stack.

Monitors attach to live components — a
:class:`~repro.core.suspension.SuspensionTimer`, a
:class:`~repro.simos.engine.Engine`, or a whole
:class:`~repro.core.controller.ThreadRegulator` — and check the paper's
contracts on every transition:

* suspension doubling law ``min(initial * 2**k, maximum)`` and the cap
  (§4.1/§4.2), and that GOOD judgments fully reset the backoff;
* the probationary duty-cycle bound (§4.3);
* monotone simulation clock and exact pending/stale event accounting;
* calibrator target finiteness (a non-finite or negative target would
  condemn or excuse a thread forever);
* state export/import round-trip fidelity (a snapshot imported into a
  fresh regulator must re-export identically), and that a rejected
  snapshot changes nothing.

Violations are recorded as structured :class:`InvariantViolation` entries
and, when a telemetry handle is supplied, emitted through the existing obs
event vocabulary (``anomaly`` events tagged ``invariant:<name>``).  In
``mode="raise"`` the first violation raises :class:`VerificationError`
instead — the right setting for tests and debugging sessions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.comparator import StatisticalComparator
from repro.core.controller import ThreadRegulator
from repro.core.errors import MannersError
from repro.core.suspension import capped_backoff
from repro.obs import events as obs_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = [
    "VerificationError",
    "InvariantViolation",
    "ViolationRecorder",
    "SuspensionInvariantMonitor",
    "EngineInvariantMonitor",
    "RegulatorInvariantMonitor",
    "check_regulator_roundtrip",
]

#: Slack for the probation duty-cycle floor comparison: the controller
#: computes the floor in floating point, so an exactly-at-the-bound delay
#: may sit one ulp below the recomputed floor.
_DUTY_SLACK = 1e-9


class VerificationError(MannersError, AssertionError):
    """An installed invariant checker observed a contract violation."""


@dataclass(frozen=True)
class InvariantViolation:
    """One observed contract violation."""

    component: str
    invariant: str
    detail: str


@dataclass
class ViolationRecorder:
    """Collects violations; optionally emits obs events or raises.

    ``mode`` is ``"record"`` (accumulate and continue — the harness/CI
    setting) or ``"raise"`` (fail fast with :class:`VerificationError`).
    """

    mode: str = "record"
    telemetry: "Telemetry | None" = None
    violations: list[InvariantViolation] = field(default_factory=list)
    checks: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("record", "raise"):
            raise ValueError(f"mode must be 'record' or 'raise', got {self.mode}")

    @property
    def ok(self) -> bool:
        """Whether no violations have been observed."""
        return not self.violations

    def passed(self) -> None:
        """Count one satisfied check (for reporting density)."""
        self.checks += 1

    def report(self, component: str, invariant: str, detail: str, t: float = 0.0) -> None:
        """Record one violation; emit/raise according to configuration."""
        self.checks += 1
        violation = InvariantViolation(
            component=component, invariant=invariant, detail=detail
        )
        self.violations.append(violation)
        tel = self.telemetry
        if tel is not None:
            tel.emit(
                obs_events.AnomalyDetected(
                    t=t,
                    src=tel.label,
                    anomaly=f"invariant:{invariant}",
                    value=0.0,
                    detail=f"{component}: {detail}",
                )
            )
            ctx = tel.trace_ctx if tel.emitting else None
            if ctx is not None:
                tel.emit(
                    obs_events.Span(
                        t=t,
                        src=tel.label,
                        span_id=ctx.new_id(),
                        parent=ctx.testpoint,
                        name="violation",
                        attrs={
                            "component": component,
                            "invariant": invariant,
                            "detail": detail,
                        },
                    )
                )
            tel.metrics.counters.invariant_violations.inc()
            # Deliver the anomaly (and its span) to any attached flight
            # recorder now, so the auto-dump captures a complete, ordered
            # buffer up to and including the violation itself.
            tel.flush()
        if self.mode == "raise":
            raise VerificationError(f"{component}.{invariant}: {detail}")


class SuspensionInvariantMonitor:
    """Forwarding wrapper that checks the backoff law on every transition.

    Presents the :class:`~repro.core.suspension.SuspensionTimer` interface
    (so it can replace a regulator's timer in place) while delegating to the
    wrapped timer and checking, per call: the imposed suspension stays in
    ``[initial, maximum]``; when the timer entered the call on the exact
    doubling schedule, the imposed value equals
    ``min(initial * 2**k, maximum)``; the stored suspension never exceeds
    the cap; POOR increments the consecutive-poor count; and GOOD/reset
    restore the initial suspension and clear the count — including after
    saturation.
    """

    def __init__(self, timer, recorder: ViolationRecorder) -> None:
        self._timer = timer
        self._recorder = recorder

    # -- pass-through interface -------------------------------------------------
    @property
    def initial(self) -> float:
        """The wrapped timer's initial suspension."""
        return self._timer.initial

    @property
    def maximum(self) -> float:
        """The wrapped timer's suspension cap."""
        return self._timer.maximum

    @property
    def current(self) -> float:
        """The wrapped timer's next POOR suspension."""
        return self._timer.current

    @property
    def consecutive_poor(self) -> int:
        """The wrapped timer's consecutive-poor count."""
        return self._timer.consecutive_poor

    @property
    def saturated(self) -> bool:
        """Whether the wrapped timer has reached its cap."""
        return self._timer.saturated

    def export_state(self) -> dict:
        """Snapshot the wrapped timer."""
        return self._timer.export_state()

    def import_state(self, state: dict) -> None:
        """Restore the wrapped timer."""
        self._timer.import_state(state)

    # -- checked transitions ----------------------------------------------------
    def on_poor(self) -> float:
        """Forward a POOR judgment; check the doubling law and the cap."""
        timer = self._timer
        rec = self._recorder
        k_before = timer.consecutive_poor
        on_schedule = timer.current == capped_backoff(
            timer.initial, k_before, timer.maximum
        )
        imposed = timer.on_poor()
        if not (timer.initial <= imposed <= timer.maximum):
            rec.report(
                "suspension_timer",
                "cap_overshoot",
                f"imposed {imposed} outside [{timer.initial}, {timer.maximum}]",
            )
        elif on_schedule and imposed != capped_backoff(
            timer.initial, k_before, timer.maximum
        ):
            rec.report(
                "suspension_timer",
                "doubling_law",
                f"k={k_before}: imposed {imposed}, law says "
                f"{capped_backoff(timer.initial, k_before, timer.maximum)}",
            )
        elif timer.current > timer.maximum:
            rec.report(
                "suspension_timer",
                "cap_overshoot",
                f"stored suspension {timer.current} exceeds cap {timer.maximum}",
            )
        elif timer.consecutive_poor != k_before + 1:
            rec.report(
                "suspension_timer",
                "poor_count",
                f"consecutive_poor {timer.consecutive_poor} after k={k_before}",
            )
        else:
            rec.passed()
        return imposed

    def on_good(self) -> None:
        """Forward a GOOD judgment; check the reset is complete."""
        timer = self._timer
        timer.on_good()
        if timer.consecutive_poor != 0 or timer.current != timer.initial:
            self._recorder.report(
                "suspension_timer",
                "reset",
                f"after GOOD: current={timer.current} (want {timer.initial}), "
                f"consecutive_poor={timer.consecutive_poor} (want 0)",
            )
        else:
            self._recorder.passed()

    def reset(self) -> None:
        """Forward a reset; same contract as :meth:`on_good`."""
        self.on_good()


class EngineInvariantMonitor:
    """Patches an engine's hot paths to audit clock and store accounting.

    Works on either event core.  After every fired event (and every
    scheduling call) the monitor verifies: the simulation clock never
    moved backwards; the O(1) ``pending`` counter equals a linear scan
    for live stored entries; and the stale-entry counter equals the
    number of cancelled entries actually sitting in the store (the
    compaction bookkeeping).  Heap cores are scanned through ``_heap``;
    wheel cores are walked through ``_entries()`` and additionally have
    their per-slot occupancy bitmaps audited against the slot contents
    (``_audit_slots``).  Detach restores the engine's original methods.
    """

    #: Engine methods shadowed through the instance dict while monitoring.
    _SHADOWED = ("step", "call_at", "call_after", "post_at", "post_after")

    def __init__(self, engine, recorder: ViolationRecorder) -> None:
        self._engine = engine
        self._recorder = recorder
        self._last_now = engine.now
        self._orig_step = engine.step
        # Instance attributes shadow the class methods; setting
        # ``_monitored`` routes Engine.run()'s inlined fast loops through
        # self.step() so every fired event passes the audit too.
        engine.step = self._step
        engine.call_at = self._wrap_schedule(engine.call_at, "call_at")
        engine.call_after = self._wrap_schedule(engine.call_after, "call_after")
        engine.post_at = self._wrap_schedule(engine.post_at, "post_at")
        engine.post_after = self._wrap_schedule(engine.post_after, "post_after")
        engine._monitored = True

    def _audit(self, context: str) -> None:
        engine = self._engine
        rec = self._recorder
        now = engine.now
        if now < self._last_now:
            rec.report(
                "engine",
                "monotone_clock",
                f"{context}: clock moved from {self._last_now} back to {now}",
                t=now,
            )
        else:
            rec.passed()
        self._last_now = max(self._last_now, now)
        # Plain tuple entries are the non-cancellable hot path: always live.
        # Handle entries are live until cancelled (or consumed by firing).
        heap = getattr(engine, "_heap", None)
        entries = heap if heap is not None else list(engine._entries())
        live = sum(
            1 for h in entries if h.__class__ is tuple or not h.cancelled
        )
        stale = len(entries) - live
        if engine.pending != live:
            rec.report(
                "engine",
                "pending_count",
                f"{context}: pending counter {engine.pending}, live scan {live}",
                t=now,
            )
        elif engine._stale != stale:
            rec.report(
                "engine",
                "stale_count",
                f"{context}: stale counter {engine._stale}, store holds {stale}",
                t=now,
            )
        else:
            rec.passed()
        if heap is None:
            problems = engine._audit_slots()
            if problems:
                rec.report(
                    "engine",
                    "slot_bitmap",
                    f"{context}: {problems[0]} (+{len(problems) - 1} more)",
                    t=now,
                )
            else:
                rec.passed()

    def _step(self) -> bool:
        fired = self._orig_step()
        self._audit("step")
        return fired

    def _wrap_schedule(self, orig, context: str):
        def audited(*args, **kwargs):
            result = orig(*args, **kwargs)
            self._audit(context)
            return result

        return audited

    def detach(self) -> None:
        """Restore the engine's unmonitored methods."""
        # Bound-method access creates a fresh object each time, so identity
        # checks against self._step would never match; pop unconditionally.
        engine = self._engine
        for name in self._SHADOWED:
            engine.__dict__.pop(name, None)
        engine._monitored = False


def check_regulator_roundtrip(
    regulator: ThreadRegulator, recorder: ViolationRecorder, t: float = 0.0
) -> bool:
    """Export → fresh regulator → import → re-export must be bit-identical.

    Compares canonical JSON of the two runtime snapshots, which covers
    calibrator values *and* warm-up counts, suspension saturation, the open
    sign-test window, and the bootstrap/probation phase markers.  Then
    imports a corrupted copy into the clone: one that would add a metric
    set and raise the processed count, but whose runtime baseline is NaN.
    It must raise :class:`MannersError` and leave the clone unchanged.
    Returns whether both held.  Only regulators using the stock
    :class:`~repro.core.comparator.StatisticalComparator` (or a monitored
    wrapper of one) can be cloned; others are skipped without judgment.
    """
    snapshot = regulator.export_state(include_runtime=True)
    clone = ThreadRegulator(config=regulator.config)
    clone.import_state(snapshot)
    replayed = clone.export_state(include_runtime=True)
    before = json.dumps(snapshot, sort_keys=True)
    after = json.dumps(replayed, sort_keys=True)
    if before != after:
        recorder.report(
            "regulator",
            "roundtrip_fidelity",
            f"re-exported snapshot differs: {before[:200]} != {after[:200]}",
            t=t,
        )
        return False
    recorder.passed()
    corrupted = json.loads(after)
    corrupted["sets"][str(max(map(int, corrupted["sets"]), default=-1) + 1)] = {
        "arity": 1,
        "calibration": {"rate": 1.0, "samples": 1},
    }
    corrupted["processed_testpoints"] += 1
    corrupted["runtime"]["last_arrival"] = math.nan
    try:
        clone.import_state(corrupted)
    except MannersError:
        rejected = json.dumps(clone.export_state(include_runtime=True), sort_keys=True)
        if rejected != after:
            recorder.report(
                "regulator",
                "rejected_snapshot",
                f"clone changed by a rejected snapshot: {after[:200]} -> {rejected[:200]}",
                t=t,
            )
            return False
    else:
        recorder.report(
            "regulator",
            "rejected_snapshot",
            "a snapshot with a NaN runtime baseline was accepted",
            t=t,
        )
        return False
    recorder.passed()
    return True


class RegulatorInvariantMonitor:
    """Audits every testpoint decision of a live regulator.

    Wraps :meth:`~repro.core.controller.ThreadRegulator.on_testpoint` and
    checks each :class:`~repro.core.controller.TestpointDecision`: delays
    are finite and non-negative; target durations are finite and
    non-negative (calibrator finiteness); during probation, processed
    non-discarded samples honour the duty-cycle floor
    ``delay >= duration * (1 - duty) / duty``; and — every
    ``roundtrip_every`` processed testpoints — the export/import round trip
    is bit-faithful.  The regulator's suspension timer is additionally
    wrapped in a :class:`SuspensionInvariantMonitor`.
    """

    def __init__(
        self,
        regulator: ThreadRegulator,
        recorder: ViolationRecorder,
        roundtrip_every: int = 0,
    ) -> None:
        self._regulator = regulator
        self._recorder = recorder
        self._roundtrip_every = roundtrip_every
        self._since_roundtrip = 0
        self._orig_on_testpoint = regulator.on_testpoint
        regulator.on_testpoint = self._on_testpoint
        self._timer_monitor = SuspensionInvariantMonitor(
            regulator._suspension, recorder
        )
        regulator._suspension = self._timer_monitor

    def _on_testpoint(self, now, index, counters):
        decision = self._orig_on_testpoint(now, index, counters)
        self._check_decision(now, decision)
        return decision

    def _check_decision(self, now: float, decision) -> None:
        rec = self._recorder
        reg = self._regulator
        if not math.isfinite(decision.delay) or decision.delay < 0.0:
            rec.report(
                "regulator",
                "delay_domain",
                f"decision delay {decision.delay} at t={now}",
                t=now,
            )
        else:
            rec.passed()
        target = decision.target_duration
        if target is not None and (not math.isfinite(target) or target < 0.0):
            rec.report(
                "regulator",
                "target_finiteness",
                f"target duration {target} at t={now}",
                t=now,
            )
        else:
            rec.passed()
        config = reg.config
        if (
            decision.processed
            and decision.anomaly is None
            and not decision.discarded_hung
            and decision.duration > 0.0
            and reg.in_probation(now)
        ):
            floor = (
                decision.duration
                * (1.0 - config.probation_duty)
                / config.probation_duty
            )
            if decision.delay < floor - _DUTY_SLACK:
                rec.report(
                    "regulator",
                    "probation_duty",
                    f"delay {decision.delay} below duty floor {floor} "
                    f"for duration {decision.duration} at t={now}",
                    t=now,
                )
            else:
                rec.passed()
        if decision.processed and self._roundtrip_every > 0:
            self._since_roundtrip += 1
            if self._since_roundtrip >= self._roundtrip_every:
                self._since_roundtrip = 0
                if isinstance(reg._comparator, StatisticalComparator):
                    check_regulator_roundtrip(reg, rec, t=now)

    def detach(self) -> None:
        """Restore the unmonitored ``on_testpoint`` and suspension timer."""
        reg = self._regulator
        reg.__dict__.pop("on_testpoint", None)
        if reg._suspension is self._timer_monitor:
            reg._suspension = self._timer_monitor._timer
