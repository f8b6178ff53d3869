"""Typed, versioned telemetry event records.

Every regulation-relevant moment in the system is described by one of the
frozen dataclasses below.  Events are *data*: they carry a substrate
timestamp ``t`` (simulated or wall-clock seconds — whatever clock the
embedding substrate feeds the regulator), a ``src`` label identifying the
emitting scope (usually a thread or process name), and kind-specific
fields.  They never hold live object references, so a JSONL trace written
on one machine replays losslessly on another.

Serialization: :func:`event_to_dict` produces a flat JSON-safe dict with
two envelope keys — ``k`` (the event kind) and ``v`` (the schema version)
— and :func:`event_from_dict` reverses it.  Bump
:data:`EVENT_SCHEMA_VERSION` whenever a field is removed or changes
meaning; :func:`event_from_dict` refuses versions it does not understand
rather than silently misreading them.  Purely additive changes (a new
event kind, a new field with a default) keep the version: old traces read
under the new schema and vice versa, because deserialization ignores
unknown keys and fills absent fields from their defaults.

Enum-valued quantities (judgments) are carried as their string values so
that a trace is self-describing without importing this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Mapping

from repro.core.errors import MannersError

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "Event",
    "Span",
    "FlightRecorderDump",
    "TestpointProcessed",
    "JudgmentIssued",
    "SuspensionStarted",
    "SuspensionEnded",
    "BackoffReset",
    "CalibrationSample",
    "TargetUpdated",
    "PhaseTransition",
    "SampleDiscarded",
    "SlotGranted",
    "SlotEvicted",
    "TokenHandoff",
    "BeNicePoll",
    "FaultInjected",
    "AnomalyDetected",
    "RecoveryAction",
    "event_to_dict",
    "event_from_dict",
]

#: Version stamped into every serialized event (the ``v`` envelope key).
EVENT_SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class Event:
    """Common envelope of all telemetry events."""

    #: Discriminator used in the serialized form's ``k`` key.
    kind: ClassVar[str] = "event"

    #: Substrate timestamp, in seconds (simulated or wall clock).
    t: float
    #: Emitting scope — typically a thread or process label.
    src: str = ""


@dataclass(frozen=True, slots=True)
class Span(Event):
    """One causally-linked step of a regulation decision (``repro.obs.trace2``).

    Spans form a forest over the regulation pipeline: each carries a
    run-unique ``span_id``, the ``span_id`` of its causal ``parent`` (0 =
    root), and optional additional causal ``links`` (a judgment span links
    every sign-test sample in its window).  ``name`` identifies the pipeline
    step (``"testpoint"``, ``"signtest_sample"``, ``"judgment"``,
    ``"suspension"``, ``"backoff_reset"``, ``"calibration_update"``,
    ``"watchdog_eviction"``, ``"violation"``); ``attrs`` carries the step's
    decision inputs as JSON-scalar values (samples seen, threshold-table
    row, target rate, probation state, ...).  Spans compare by value like
    every other event (batched-vs-direct parity), but are not hashable
    (``attrs`` is a dict).
    """

    kind: ClassVar[str] = "span"

    span_id: int = 0
    parent: int = 0
    links: tuple[int, ...] = ()
    name: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class FlightRecorderDump(Event):
    """Header record of a flight-recorder snapshot file.

    Written as the first line of every dump so the file is self-describing:
    ``reason`` names the trigger (``"fault"``, ``"violation"``,
    ``"crash"``, or a caller-supplied label), ``captured`` counts the
    buffered events that follow, and ``dropped`` counts the older events
    the ring buffer had already discarded.
    """

    kind: ClassVar[str] = "flightrec_dump"

    reason: str = ""
    captured: int = 0
    dropped: int = 0


@dataclass(frozen=True, slots=True)
class TestpointProcessed(Event):
    """One processed (non-lightweight) testpoint and its full decision."""

    kind: ClassVar[str] = "testpoint"

    set_index: int = 0
    duration: float = 0.0
    target_duration: float | None = None
    deltas: tuple[float, ...] = ()
    delay: float = 0.0
    judgment: str | None = None
    calibrated: bool = False
    bootstrap: bool = False
    probation_delay: float = 0.0
    off_protocol: bool = False
    discarded_hung: bool = False


@dataclass(frozen=True, slots=True)
class JudgmentIssued(Event):
    """The statistical comparator closed a sign-test window."""

    kind: ClassVar[str] = "judgment"

    judgment: str = ""
    #: Samples in the window that produced the verdict.
    samples: int = 0
    #: Below-target samples among them.
    below: int = 0


@dataclass(frozen=True, slots=True)
class SuspensionStarted(Event):
    """A POOR judgment (or probation cap) imposed a suspension."""

    kind: ClassVar[str] = "suspension_started"

    delay: float = 0.0
    #: Consecutive-poor backoff level after this judgment (1 = first poor).
    level: int = 0


@dataclass(frozen=True, slots=True)
class SuspensionEnded(Event):
    """The substrate released a thread after serving its suspension."""

    kind: ClassVar[str] = "suspension_ended"

    #: Seconds the thread actually spent suspended/parked.
    slept: float = 0.0


@dataclass(frozen=True, slots=True)
class BackoffReset(Event):
    """A GOOD judgment reset the exponential backoff to its initial value."""

    kind: ClassVar[str] = "backoff_reset"

    #: Consecutive-poor level the timer was at before the reset.
    from_level: int = 0


@dataclass(frozen=True, slots=True)
class CalibrationSample(Event):
    """One on-protocol sample was folded into a metric set's calibrator."""

    kind: ClassVar[str] = "calibration_sample"

    set_index: int = 0
    duration: float = 0.0
    deltas: tuple[float, ...] = ()


@dataclass(frozen=True, slots=True)
class TargetUpdated(Event):
    """A calibrator's target changed after absorbing a sample."""

    kind: ClassVar[str] = "target_updated"

    set_index: int = 0
    sample_count: int = 0
    #: Calibrated rate for single-metric sets; ``None`` for regression sets.
    target_rate: float | None = None
    #: Median-correction factor, when the calibrator tracks one.
    scale: float | None = None


@dataclass(frozen=True, slots=True)
class PhaseTransition(Event):
    """A regulator crossed a lifecycle boundary.

    ``phase`` values: ``"bootstrap"`` (priming testpoint seen),
    ``"regulating"`` (bootstrap testpoints exhausted), and
    ``"probation_ended"`` (the probationary duty-cycle cap expired).
    """

    kind: ClassVar[str] = "phase"

    phase: str = ""


@dataclass(frozen=True, slots=True)
class SampleDiscarded(Event):
    """A measured interval contributed no calibration/rate information.

    ``reason`` is ``"hung"`` (interval exceeded the hung threshold —
    presumed external delay) or ``"subsample"`` (off-protocol testpoint
    excluded from calibration, section 4.3).
    """

    kind: ClassVar[str] = "discard"

    reason: str = ""
    duration: float = 0.0


@dataclass(frozen=True, slots=True)
class SlotGranted(Event):
    """A supervisor seated a thread in its process's execution slot."""

    kind: ClassVar[str] = "slot_granted"

    process: str = ""
    thread: str = ""


@dataclass(frozen=True, slots=True)
class SlotEvicted(Event):
    """A supervisor evicted the slot owner as hung."""

    kind: ClassVar[str] = "slot_evicted"

    process: str = ""
    thread: str = ""
    #: Seconds since the evicted thread last testpointed or was released.
    idle_for: float = 0.0


@dataclass(frozen=True, slots=True)
class TokenHandoff(Event):
    """The machine-wide execution token changed hands.

    ``action`` is ``"acquired"`` or ``"released"``.
    """

    kind: ClassVar[str] = "token"

    process: str = ""
    action: str = ""


@dataclass(frozen=True, slots=True)
class BeNicePoll(Event):
    """One BeNice suspend-poll-resume cycle and its outcome."""

    kind: ClassVar[str] = "benice_poll"

    interval: float = 0.0
    changed: bool = False
    delay: float = 0.0


@dataclass(frozen=True, slots=True)
class FaultInjected(Event):
    """The fault-injection harness fired one planned fault.

    Emitted by :mod:`repro.faults` at the moment a fault takes effect, so a
    trace shows the injected failure right next to the regulator's reaction
    to it.  ``fault`` names the fault kind (``"clock_backstep"``,
    ``"clock_jump"``, ``"stall"``, ``"unstall"``, ``"crash"``,
    ``"disk_fail"``, ``"torn_file"``, ``"save_fail"``, ``"sink_raise"``,
    and the daemon's IPC kinds ``"msg_drop"``, ``"msg_delay"``,
    ``"msg_dup"``, ``"frame_truncate"``, ``"peer_hang"``,
    ``"worker_kill"``); ``target`` identifies the victim (a thread,
    store, sink, or worker label).
    """

    kind: ClassVar[str] = "fault"

    fault: str = ""
    target: str = ""
    param: float = 0.0


@dataclass(frozen=True, slots=True)
class AnomalyDetected(Event):
    """A resilience guard rejected an implausible observation (§4.1).

    ``anomaly`` values: ``"clock_backward"`` (timestamp regressed),
    ``"zero_elapsed"`` (testpoint with no elapsed time),
    ``"rate_spike"`` (measured rate implausibly above target),
    ``"corrupt_target"`` (persisted target file unreadable, or its state
    rejected on import),
    ``"save_failure"`` (target save attempt failed),
    ``"watchdog_stall"`` (regulated thread stopped testpointing),
    ``"sink_failure"`` (a telemetry sink raised),
    ``"metric_error"`` (a counter read produced unusable values).
    The daemon (:mod:`repro.daemon.server`) adds: ``"protocol_error"``
    (handshake or frame violated the wire protocol),
    ``"protocol_mismatch"`` (peer spoke an unsupported version),
    ``"bad_frame"`` (damaged inbound line skipped),
    ``"peer_unresponsive"`` (worker silent past the heartbeat timeout),
    ``"worker_lost"`` (registered worker's connection dropped),
    ``"worker_exit"`` (supervised worker subprocess died),
    ``"worker_spawn_failed"`` (worker subprocess could not start),
    ``"restore_mismatch"`` (restored state digest differed from the
    digest of the stored state it was imported from).
    """

    kind: ClassVar[str] = "anomaly"

    anomaly: str = ""
    value: float = 0.0
    detail: str = ""


@dataclass(frozen=True, slots=True)
class RecoveryAction(Event):
    """The resilience layer's compensating action for a detected anomaly.

    ``action`` values: ``"sample_discarded"`` (anomalous measurement
    excluded from calibration and judgment), ``"quarantine"`` (corrupt
    target file set aside as ``*.corrupt``), ``"rebootstrap"`` (regulation
    restarted from fresh calibration), ``"save_retry"`` (persistence retried
    after a write failure), ``"save_skipped"`` (save dropped after its
    attempts failed; the daemon's next sweep tries again),
    ``"watchdog_release"`` (stalled thread evicted so siblings run),
    ``"slot_released"`` (crashed thread's execution slot reclaimed),
    ``"sink_disabled"`` (failing telemetry sink isolated).
    The daemon (:mod:`repro.daemon.server`) adds: ``"retransmit_absorbed"``
    (dropped request recovered by the client's retransmit),
    ``"resend_served"`` (retransmitted request answered from the decision
    cache), ``"duplicate_discarded"`` (client dropped a duplicated reply),
    ``"bad_frame_skipped"`` (client skipped a truncated frame),
    ``"delayed_delivery"`` (delayed frame still served),
    ``"hang_recovered"`` (daemon resumed after going silent),
    ``"worker_evicted"`` (unresponsive worker disconnected, slot freed),
    ``"worker_restarted"`` (dead worker subprocess respawned),
    ``"reconnect_rebound"`` (reconnecting worker displaced its old
    session), ``"state_restored"`` (calibration restored from the
    application's target file), ``"drain_flush"`` (graceful shutdown
    saved every changed target).
    """

    kind: ClassVar[str] = "recovery"

    action: str = ""
    detail: str = ""


#: Registry of concrete event classes by serialized kind.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        Span,
        FlightRecorderDump,
        TestpointProcessed,
        JudgmentIssued,
        SuspensionStarted,
        SuspensionEnded,
        BackoffReset,
        CalibrationSample,
        TargetUpdated,
        PhaseTransition,
        SampleDiscarded,
        SlotGranted,
        SlotEvicted,
        TokenHandoff,
        BeNicePoll,
        FaultInjected,
        AnomalyDetected,
        RecoveryAction,
    )
}

_FIELDS_CACHE: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELDS_CACHE.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls))
        _FIELDS_CACHE[cls] = names
    return names


def event_to_dict(event: Event) -> dict[str, Any]:
    """Serialize an event to a flat JSON-safe dict (with ``k``/``v`` keys)."""
    out: dict[str, Any] = {"k": event.kind, "v": EVENT_SCHEMA_VERSION}
    for name in _field_names(type(event)):
        value = getattr(event, name)
        if isinstance(value, tuple):
            value = list(value)
        out[name] = value
    return out


def event_from_dict(data: Mapping[str, Any]) -> Event:
    """Reconstruct an event serialized by :func:`event_to_dict`."""
    version = data.get("v")
    if version != EVENT_SCHEMA_VERSION:
        raise MannersError(
            f"unsupported telemetry event schema version {version!r} "
            f"(this build reads version {EVENT_SCHEMA_VERSION})"
        )
    kind = data.get("k")
    cls = EVENT_TYPES.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise MannersError(f"unknown telemetry event kind {kind!r}")
    kwargs: dict[str, Any] = {}
    for name in _field_names(cls):
        if name not in data:
            continue
        value = data[name]
        if value is not None:
            if name == "deltas":
                value = tuple(float(v) for v in value)
            elif name == "links":
                value = tuple(int(v) for v in value)
        kwargs[name] = value
    return cls(**kwargs)
