"""Per-thread regulation state machine (paper sections 4.1-4.4, 7.1).

:class:`ThreadRegulator` is the component behind the paper's
``Testpoint(index, count, metrics)`` call for a single regulated thread.  It
is *pure*: it never sleeps, spawns threads, or reads a clock.  The embedding
substrate (the simulator bridge, the realtime adapter, or BeNice) calls
:meth:`ThreadRegulator.on_testpoint` with a timestamp and cumulative progress
counters and receives a :class:`TestpointDecision` saying how long the thread
must now be suspended (0 to proceed immediately).

Responsibilities, mapped to the paper:

* lightweight gate for rapid successive calls (section 7.1);
* per-metric-set progress deltas; duration measured from when the previous
  testpoint *released* the thread, so suspension time is never mistaken for
  slow progress (section 4.1);
* target durations from per-set calibrators — exponential averaging for
  single-metric sets, ridge regression for concurrent multi-metric sets
  (sections 4.4, 6.2, 6.3);
* statistical rate comparison via the sequential sign test, spanning metric
  sets/phases (sections 4.2, 6.1);
* exponential suspension backoff with cap (section 4.1);
* bootstrap with no true regulation, followed by a probationary period with
  a capped duty cycle (section 4.3);
* subsampling: testpoints that arrive while the thread should still have
  been suspended (an application overriding regulation) are excluded from
  calibration (section 4.3);
* hung-thread discard: an interval longer than the hung threshold is
  presumed to contain external delay and contributes no rate measurement
  (section 7.1);
* clock-anomaly guards (section 4.1's sanity checks under the fault model
  of ``docs/robustness.md``): a backward timestamp, a zero-elapsed
  interval, or an implausible rate spike (more than
  ``rate_spike_factor`` times the calibrated rate) discards the sample —
  rebasing baselines, perturbing neither the calibrated target nor the
  sign test — and reports an ``anomaly`` event.  A non-finite timestamp
  or counter is a caller error and raises; a non-finite timestamp raises
  before any state changes.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.calibration import Calibrator, make_calibrator
from repro.core.comparator import RateComparator, StatisticalComparator
from repro.core.config import DEFAULT_CONFIG, MannersConfig
from repro.core.errors import MannersError, MetricError, RegulationStateError
from repro.core.signtest import Judgment
from repro.core.suspension import SuspensionTimer
from repro.obs import lazy as obs_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["TestpointDecision", "RegulatorStats", "ThreadRegulator"]

_INF = math.inf

#: Tolerance (seconds) when deciding whether a testpoint arrived before the
#: end of its thread's mandated suspension.  Absorbs clock jitter in real
#: substrates; exact in the simulator.
_OFF_PROTOCOL_SLACK = 1e-6

#: Durations at or below this many seconds are indistinguishable from a
#: frozen clock at double precision: dividing a progress delta by them
#: manufactures astronomically large but *finite* rates (e.g. 1e-10 units
#: over 2e-308 s reads as ~5e297 units/s) that sail past the §4.1
#: rate-spike guard's multiplicative threshold.  The zero-elapsed guard
#: discards them exactly like a zero-duration interval instead.
MIN_MEASURABLE_DURATION = sys.float_info.epsilon


def _encode_time(value: float) -> float | None:
    """JSON-safe encoding for pre-priming time baselines (``-inf`` → ``None``)."""
    return None if value == -math.inf else value


def _decode_time(value: float | None) -> float:
    """Inverse of :func:`_encode_time`."""
    return -math.inf if value is None else float(value)


#: Minimum calibration samples a metric set needs before its samples are
#: submitted to the comparator.  A set seen for the first time mid-run
#: (a new execution phase) calibrates briefly before it can trigger
#: regulation, mirroring the per-set allocate-on-first-use behaviour of the
#: library interface (section 7.1).
_SET_WARMUP_SAMPLES = 4


@dataclass(slots=True)
class TestpointDecision:
    """Outcome of one testpoint call.

    Not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, which tripled the cost of building one on the
    per-testpoint path.  So decisions are mutable and not hashable.  Every
    call returns a fresh one and the regulator keeps none, so a caller that
    edits its decision changes nothing else.

    Attributes:
        processed: ``False`` when the lightweight gate absorbed the call
            (too soon since the previous processed testpoint); all other
            fields are then inert.
        delay: Seconds the thread must be suspended before proceeding.
            0.0 means proceed immediately.
        judgment: The comparator's verdict for this testpoint, or ``None``
            if no comparison was made (priming call, bootstrap, warm-up,
            hung discard).
        duration: Measured seconds since the thread was last released.
        target_duration: Target duration for this sample's progress, or
            ``None`` when no comparison was made.
        deltas: Progress deltas for the reporting metric set.
        calibrated: Whether this sample was folded into the calibrator.
        bootstrap: Whether the thread is still in its bootstrap phase.
        probation_delay: Portion of ``delay`` imposed by the probationary
            duty-cycle cap rather than by a POOR judgment.
        discarded_hung: Whether the interval was discarded as a presumed
            hang / external delay.
        off_protocol: Whether this testpoint arrived before the previous
            suspension had been served (application overriding regulation).
        anomaly: Reason the sample was discarded by an anomaly guard
            (``"clock_backward"``, ``"zero_elapsed"``, ``"rate_spike"``,
            or a reason passed to
            :meth:`ThreadRegulator.discard_next_interval` such as
            ``"watchdog_stall"``), or ``None`` for a normal sample.
    """

    processed: bool
    delay: float = 0.0
    judgment: Judgment | None = None
    duration: float = 0.0
    target_duration: float | None = None
    deltas: tuple[float, ...] = ()
    calibrated: bool = False
    bootstrap: bool = False
    probation_delay: float = 0.0
    discarded_hung: bool = False
    off_protocol: bool = False
    anomaly: str | None = None

    @property
    def should_suspend(self) -> bool:
        """Whether the caller must suspend the thread before continuing."""
        return self.delay > 0.0


@dataclass(slots=True)
class RegulatorStats:
    """Aggregate counters for introspection, tracing, and experiments."""

    testpoints: int = 0
    lightweight: int = 0
    processed: int = 0
    poor_judgments: int = 0
    good_judgments: int = 0
    indeterminate: int = 0
    calibration_samples: int = 0
    hung_discards: int = 0
    off_protocol_samples: int = 0
    clock_anomalies: int = 0
    zero_elapsed_discards: int = 0
    rate_spike_discards: int = 0
    forced_discards: int = 0
    total_suspension: float = 0.0
    probation_suspension: float = 0.0


class _MetricSetState:
    """Per-metric-set bookkeeping: last counters and the calibrator."""

    __slots__ = ("arity", "last_counters", "calibrator")

    def __init__(self, arity: int, calibrator: Calibrator) -> None:
        self.arity = arity
        self.last_counters: tuple[float, ...] | None = None
        self.calibrator = calibrator


class ThreadRegulator:
    """Full regulation state machine for one low-importance thread."""

    # verify: allow-slots (the verify regulator invariant monitor shadows
    # on_testpoint through the instance dict; one regulator per thread, so
    # the per-instance dict is not hot-path allocation churn)

    def __init__(
        self,
        config: MannersConfig = DEFAULT_CONFIG,
        comparator: RateComparator | None = None,
        start_time: float | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self._config = config
        self._telemetry = telemetry
        self._comparator = comparator or StatisticalComparator(
            alpha=config.alpha,
            beta=config.beta,
            max_samples=config.max_sign_samples,
            telemetry=telemetry,
        )
        self._suspension = SuspensionTimer(
            initial=config.initial_suspension,
            maximum=config.max_suspension,
            telemetry=telemetry,
        )
        #: Telemetry-only probation tracking (never affects decisions).
        self._was_in_probation = False
        self._sets: dict[int, _MetricSetState] = {}
        #: Time the thread was last released (previous testpoint arrival plus
        #: its mandated delay); ``None`` until the priming testpoint.
        self._interval_start: float | None = None
        #: End of the suspension mandated by the previous decision; testpoints
        #: arriving before this are off-protocol.
        self._resume_at: float = -math.inf
        #: Arrival time of the most recent processed testpoint.
        self._last_arrival: float = -math.inf
        self._start_time = start_time
        self._processed_testpoints = 0
        #: Reason to discard the next processed testpoint (set by the
        #: supervisor's watchdog); ``None`` when nothing is pending.
        self._discard_next: str | None = None
        self.stats = RegulatorStats()

    # -- introspection ---------------------------------------------------------
    @property
    def config(self) -> MannersConfig:
        """The regulator's configuration."""
        return self._config

    @property
    def suspension(self) -> SuspensionTimer:
        """The exponential suspension timer (read-mostly)."""
        return self._suspension

    @property
    def in_bootstrap(self) -> bool:
        """Whether the thread is still within its bootstrap testpoints."""
        return self._processed_testpoints < self._config.bootstrap_testpoints

    def in_probation(self, now: float) -> bool:
        """Whether ``now`` falls within the probationary period."""
        if self._start_time is None or self._config.probation_period <= 0.0:
            return False
        return now < self._start_time + self._config.probation_period

    def metric_set_indices(self) -> tuple[int, ...]:
        """Indices of the metric sets seen so far."""
        return tuple(sorted(self._sets))

    def calibrator(self, index: int) -> Calibrator:
        """The calibrator for metric set ``index`` (must exist)."""
        try:
            return self._sets[index].calibrator
        except KeyError:
            raise RegulationStateError(f"unknown metric set index {index}") from None

    def target_duration(self, index: int, deltas: Sequence[float]) -> float:
        """Target duration for ``deltas`` under set ``index``'s calibration."""
        return self.calibrator(index).target_duration(deltas)

    # -- persistence -------------------------------------------------------------
    def export_state(self, include_runtime: bool = False) -> dict:
        """Serializable snapshot of the regulator's learned and phase state.

        Always captured: per-set calibrations (with their exact warm-up
        counts), the suspension timer's backoff position, the open sign-test
        window, the processed-testpoint count (bootstrap phase), and the
        start time (probation phase) — everything needed for a restored
        regulator to issue the same verdicts an uninterrupted one would.

        With ``include_runtime=True``, the snapshot additionally captures
        the in-flight interval baselines (release time, suspension deadline,
        last arrival, per-set last counters, pending forced discard), making
        the save→load round trip *bit-identical* mid-run: the restored
        regulator's subsequent decision stream matches the original's
        exactly.  Runtime baselines are clock readings, so they only make
        sense when the restored regulator resumes on the same clock (the
        simulator, or a checkpoint of a live run); plain restarts should
        leave them out and let the first testpoint re-prime.
        """
        state: dict = {
            "sets": {
                str(index): {
                    "arity": set_state.arity,
                    "calibration": set_state.calibrator.export_state(),
                }
                for index, set_state in self._sets.items()
            },
            "suspension": self._suspension.export_state(),
            "processed_testpoints": self._processed_testpoints,
            "start_time": self._start_time,
        }
        comparator = self._comparator
        if hasattr(comparator, "export_state"):
            state["comparator"] = comparator.export_state()
        if include_runtime:
            state["runtime"] = {
                "interval_start": self._interval_start,
                "resume_at": _encode_time(self._resume_at),
                "last_arrival": _encode_time(self._last_arrival),
                "discard_next": self._discard_next,
                "was_in_probation": self._was_in_probation,
                "last_counters": {
                    str(index): (
                        None
                        if set_state.last_counters is None
                        else list(set_state.last_counters)
                    )
                    for index, set_state in self._sets.items()
                },
            }
        return state

    def import_state(self, state: Mapping) -> None:
        """Restore a snapshot persisted by :meth:`export_state`.

        Every section is optional, so snapshots from older format revisions
        still load.  Current snapshots restore the exact phase: calibrator
        warm-up counts, suspension backoff (including saturation), the open
        sign-test window, the bootstrap testpoint count, and the probation
        start time all survive the round trip.  Legacy snapshots (a bare
        ``sets`` mapping) keep the original restart semantics: persisted
        targets carry full weight and bootstrap is skipped (section 7.1).

        All or nothing: every section is checked before anything changes,
        so a rejected snapshot leaves the regulator exactly as it was.  A
        rejection is a :class:`MannersError`.  The components' own checks
        keep their :class:`MetricError` or :class:`ConfigError` (a NaN
        statistic, a sign-test window out of bounds); a missing key or a
        value of the wrong type raises :class:`MetricError`, and so does a
        non-finite ``start_time`` (NaN would skip probation and ``inf``
        never end it) or runtime baseline.
        """
        config = self._config
        sets = self._sets
        try:
            # Each calibration and the suspension section are checked by
            # importing them into throwaway components built from the same
            # configuration; the same imports cannot fail on the real ones.
            arities = {index: set_state.arity for index, set_state in sets.items()}
            staged = []
            for key, entry in state.get("sets", {}).items():
                index = int(key)
                arity = int(entry["arity"])
                if arities.setdefault(index, arity) != arity:
                    raise MetricError(
                        f"persisted metric set {index} has {arity} metrics, "
                        f"expected {arities[index]}"
                    )
                calibration = entry["calibration"]
                make_calibrator(arity, config).import_state(calibration)
                staged.append((index, arity, calibration))
            if "suspension" in state:
                SuspensionTimer(
                    config.initial_suspension, config.max_suspension
                ).import_state(state["suspension"])
            processed = self._processed_testpoints
            if "processed_testpoints" in state:
                processed = max(processed, int(state["processed_testpoints"]))
            elif staged:
                processed = max(processed, config.bootstrap_testpoints)
            start_time = state.get("start_time")
            if start_time is not None:
                start_time = float(start_time)
                if not math.isfinite(start_time):
                    raise MetricError(f"persisted start time is not finite: {start_time}")
            runtime = state.get("runtime")
            if runtime is not None:
                interval_start = runtime.get("interval_start")
                if interval_start is not None:
                    interval_start = float(interval_start)
                resume_at = _decode_time(runtime.get("resume_at"))
                last_arrival = _decode_time(runtime.get("last_arrival"))
                if not (
                    (interval_start is None or -_INF < interval_start < _INF)
                    and -_INF <= resume_at < _INF
                    and -_INF <= last_arrival < _INF
                ):
                    raise MetricError(
                        "persisted runtime times are not finite: "
                        f"{interval_start}, {resume_at}, {last_arrival}"
                    )
                discard_next = runtime.get("discard_next")
                if discard_next is not None and discard_next.__class__ is not str:
                    raise MetricError(f"persisted discard reason is not a string: {discard_next!r}")
                last_counters = {}
                for key, counters in runtime.get("last_counters", {}).items():
                    index = int(key)
                    if counters is None or index not in arities:
                        continue
                    values = tuple(map(float, counters))
                    if len(values) != arities[index] or not all(
                        -_INF < value < _INF for value in values
                    ):
                        raise MetricError(
                            f"persisted counters of metric set {index} are malformed: {counters!r}"
                        )
                    last_counters[index] = values
            comparator = self._comparator
            if "comparator" in state and hasattr(comparator, "import_state"):
                # Last of the checks and first of the changes: the sign
                # test's import raises before it changes anything.
                comparator.import_state(state["comparator"])
        except MannersError:
            raise
        except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
            raise MetricError(f"persisted regulator state is malformed: {exc!r}") from exc
        for index, arity, calibration in staged:
            self._ensure_set(index, arity).calibrator.import_state(calibration)
        if "suspension" in state:
            self._suspension.import_state(state["suspension"])
        self._processed_testpoints = processed
        if start_time is not None:
            self._start_time = start_time
        if runtime is not None:
            self._interval_start = interval_start
            self._resume_at = resume_at
            self._last_arrival = last_arrival
            self._discard_next = discard_next
            self._was_in_probation = bool(runtime.get("was_in_probation", False))
            for index, values in last_counters.items():
                sets[index].last_counters = values

    # -- main entry point -----------------------------------------------------------
    def on_testpoint(
        self, now: float, index: int, counters: Sequence[float]
    ) -> TestpointDecision:
        """Process a testpoint; return what the thread must do next.

        Args:
            now: Current clock reading, in seconds.
            index: Metric-set index (the first argument of the paper's
                ``Testpoint`` call); a new index allocates a fresh metric
                set on first use.
            counters: Cumulative progress counters for the set, one per
                metric, monotone non-decreasing across calls.

        Raises:
            MetricError: ``now`` is not finite (raised before any state
                changes), or the counters are malformed (wrong arity,
                non-finite, regressed).
        """
        if not math.isfinite(now):
            # An infinite first timestamp would pin probation open forever,
            # and a NaN fails only deep in the comparator, after the
            # counters were already adopted.
            raise MetricError(f"testpoint time is not finite: {now}")
        self.stats.testpoints += 1
        if self._start_time is None:
            self._start_time = now
        tel = self._telemetry
        if tel is not None:
            tel.tick(now)
            tel.metrics.counters.testpoints.inc()

        arity = len(counters)
        set_state = self._ensure_set(index, arity)
        values = self._validate_counters(set_state, counters)

        # Priming call: establish baselines, no measurement possible yet.
        if self._interval_start is None:
            self._interval_start = now
            self._last_arrival = now
            set_state.last_counters = values
            self._processed_testpoints += 1
            self.stats.processed += 1
            bootstrap = self.in_bootstrap
            if tel is not None:
                tel.metrics.counters.testpoints_processed.inc()
                tel.emit(
                    obs_events.PhaseTransition(
                        t=now,
                        src=tel.label,
                        phase="bootstrap" if bootstrap else "regulating",
                    )
                )
            return TestpointDecision(processed=True, bootstrap=bootstrap)

        # Clock-anomaly guard (section 4.1): a timestamp earlier than the
        # previous processed testpoint means the substrate's clock stepped
        # backwards.  The interval is meaningless, so rebase everything on
        # the regressed reading — one discard, not a run of them — and
        # cancel any pending suspension deadline we can no longer trust.
        if now < self._last_arrival - _OFF_PROTOCOL_SLACK:
            self.stats.clock_anomalies += 1
            set_state.last_counters = values
            bootstrap = self._count_processed(tel, now)
            return self._discard_anomalous(
                now,
                "clock_backward",
                bootstrap=bootstrap,
                detail=f"testpoint at {now} precedes previous at {self._last_arrival}",
            )

        # Lightweight gate (section 7.1): absorb rapid successive calls.
        # Time is measured from the thread's release when it honoured its
        # suspension, and from its previous call when it did not (an
        # off-protocol caller hammering testpoints must still be gated).
        since_release = now - self._interval_start
        since_arrival = now - self._last_arrival
        gate = self._config.min_testpoint_interval
        if (0.0 <= since_release < gate) or (since_release < 0.0 and since_arrival < gate):
            self.stats.lightweight += 1
            if tel is not None:
                tel.metrics.counters.testpoints_lightweight.inc()
            return TestpointDecision(processed=False)

        # Read once: nothing below moves the start time or the config.
        probation = self.in_probation(now)
        if tel is not None:
            if self._was_in_probation and not probation:
                tel.emit(
                    obs_events.PhaseTransition(
                        t=now, src=tel.label, phase="probation_ended"
                    )
                )
            self._was_in_probation = probation

        # A pending forced discard (the supervisor's watchdog evicted this
        # thread mid-interval): the interval spans an external stall, so it
        # carries no usable rate information — adopt the counters and
        # rebase, exactly like a hung discard but below the hung threshold.
        if self._discard_next is not None:
            reason = self._discard_next
            self._discard_next = None
            self.stats.forced_discards += 1
            set_state.last_counters = values
            bootstrap = self._count_processed(tel, now)
            return self._discard_anomalous(
                now,
                reason,
                duration=max(now - self._interval_start, 0.0),
                bootstrap=bootstrap,
            )

        off_protocol = now < self._resume_at - _OFF_PROTOCOL_SLACK
        if off_protocol:
            self.stats.off_protocol_samples += 1
            # The thread executed when regulation said to suspend; measure
            # from when it was last *observed*, not from the phantom release.
            duration = max(now - self._last_arrival, 0.0)
        else:
            duration = max(now - self._interval_start, 0.0)

        last_counters = set_state.last_counters
        set_state.last_counters = values
        bootstrap = self._count_processed(tel, now)
        if last_counters is None:
            # First report for a set introduced mid-run: baseline only.
            self._finish(now, delay=0.0)
            return TestpointDecision(processed=True, bootstrap=bootstrap)

        deltas = tuple(map(operator.sub, values, last_counters))
        if tel is not None and off_protocol:
            tel.metrics.counters.off_protocol_samples.inc()

        # Hung-thread discard (section 7.1): an interval spanning a large
        # external delay carries no usable rate information.
        if duration > self._config.hung_threshold:
            self.stats.hung_discards += 1
            if tel is not None:
                tel.metrics.counters.discards_hung.inc()
                tel.emit(
                    obs_events.SampleDiscarded(
                        t=now, src=tel.label, reason="hung", duration=duration
                    )
                )
                tel.emit(
                    obs_events.TestpointProcessed(
                        t=now,
                        src=tel.label,
                        set_index=index,
                        duration=duration,
                        deltas=deltas,
                        bootstrap=bootstrap,
                        off_protocol=off_protocol,
                        discarded_hung=True,
                    )
                )
            self._finish(now, delay=0.0)
            return TestpointDecision(
                processed=True,
                duration=duration,
                deltas=deltas,
                discarded_hung=True,
                bootstrap=bootstrap,
                off_protocol=off_protocol,
            )

        # Zero-elapsed guard (section 4.1): with no *measurable* time between
        # processed testpoints (a frozen or coarsely quantized clock) the
        # sample has no rate.  Durations up to MIN_MEASURABLE_DURATION count
        # as zero, because dividing by them manufactures absurd finite rates
        # that would corrupt the calibrated target.  Judging such a sample
        # would also feed the sign test a spurious faster-than-target
        # observation, so discard instead.
        if duration <= MIN_MEASURABLE_DURATION:
            self.stats.zero_elapsed_discards += 1
            return self._discard_anomalous(
                now,
                "zero_elapsed",
                deltas=deltas,
                bootstrap=bootstrap,
                off_protocol=off_protocol,
            )

        # Rate-spike guard (section 4.1): progress more than
        # ``rate_spike_factor`` times faster than the calibrated target is
        # physically implausible (a clock glitch or torn counter read, not
        # a suddenly thousandfold-faster machine).  Folding it into the
        # calibrator would corrupt the learned target, so discard it before
        # calibration and judgment.  The deltas are finite and non-negative
        # here, so ``max(deltas) > 0.0`` asks whether any metric moved.
        calibrator = set_state.calibrator
        if (
            not bootstrap
            and not off_protocol
            and calibrator.sample_count >= _SET_WARMUP_SAMPLES
            and max(deltas) > 0.0
        ):
            expected = calibrator.target_duration(deltas)
            if (
                math.isfinite(expected)
                and expected > 0.0
                and duration * self._config.rate_spike_factor < expected
            ):
                self.stats.rate_spike_discards += 1
                return self._discard_anomalous(
                    now,
                    "rate_spike",
                    duration=duration,
                    deltas=deltas,
                    bootstrap=bootstrap,
                    off_protocol=off_protocol,
                    detail=(
                        f"duration {duration} vs target {expected} "
                        f"(factor {self._config.rate_spike_factor})"
                    ),
                )

        # Causal tracing (repro.obs.trace2): the testpoint span roots this
        # decision's tree — calibration updates, sign-test samples, the
        # judgment, and the suspension all parent back to it.
        ctx = tel.trace_ctx if tel is not None and tel.emitting else None
        if ctx is not None:
            ctx.testpoint = ctx.new_id()
            tel.emit(
                obs_events.Span(
                    t=now,
                    src=tel.label,
                    span_id=ctx.testpoint,
                    name="testpoint",
                    attrs={
                        "set_index": index,
                        "duration": duration,
                        "off_protocol": off_protocol,
                        "probation": probation,
                    },
                )
            )

        # Calibration (section 4.3): every on-protocol sample feeds the
        # calibrator with equal weight; off-protocol samples are subsampled
        # away because they would not have executed under strict regulation.
        calibrated = False
        if not off_protocol and duration > 0.0:
            if tel is not None:
                if tel.emitting:
                    tel.emit(
                        obs_events.CalibrationSample(
                            t=now,
                            src=tel.label,
                            set_index=index,
                            duration=duration,
                            deltas=deltas,
                        )
                    )
                tel.metrics.counters.calibration_samples.inc()
            calibrator.update(duration, deltas)
            self.stats.calibration_samples += 1
            calibrated = True
        elif tel is not None and off_protocol:
            tel.metrics.counters.discards_subsample.inc()
            tel.emit(
                obs_events.SampleDiscarded(
                    t=now, src=tel.label, reason="subsample", duration=duration
                )
            )

        judgment: Judgment | None = None
        target_duration: float | None = None
        delay = 0.0
        if not bootstrap and calibrator.sample_count >= _SET_WARMUP_SAMPLES:
            target_duration = calibrator.target_duration(deltas)
            judgment = self._comparator.observe(duration, target_duration)
            if judgment is Judgment.POOR:
                self.stats.poor_judgments += 1
                # Backoff level of the suspension being imposed now (the
                # on_poor call below increments consecutive_poor).
                level = self._suspension.consecutive_poor
                delay = self._suspension.on_poor()
                if tel is not None:
                    tel.metrics.counters.judgments_poor.inc()
                    tel.metrics.counters.suspensions.inc()
                    tel.metrics.histograms.suspension_delay.observe(delay)
                    tel.emit(
                        obs_events.SuspensionStarted(
                            t=now, src=tel.label, delay=delay, level=level
                        )
                    )
            elif judgment is Judgment.GOOD:
                self.stats.good_judgments += 1
                self._suspension.on_good()
                if tel is not None:
                    tel.metrics.counters.judgments_good.inc()
            else:
                self.stats.indeterminate += 1
                if tel is not None:
                    tel.metrics.counters.judgments_indeterminate.inc()

        # Probationary duty-cycle cap (section 4.3): until the probation
        # period expires, the thread may execute at most ``probation_duty``
        # of the time, bounding the damage of a target bootstrapped on a
        # loaded system.
        probation_delay = 0.0
        if probation:
            floor = duration * (1.0 - self._config.probation_duty) / self._config.probation_duty
            if floor > delay:
                probation_delay = floor - delay
                delay = floor
            self.stats.probation_suspension += probation_delay

        if ctx is not None and delay > 0.0:
            # POOR-imposed suspensions chain to the judgment that caused
            # them; probation-floor suspensions chain to the testpoint.
            tel.emit(
                obs_events.Span(
                    t=now,
                    src=tel.label,
                    span_id=ctx.new_id(),
                    parent=(
                        ctx.judgment
                        if judgment is Judgment.POOR
                        else ctx.testpoint
                    ),
                    name="suspension",
                    attrs={
                        "delay": delay,
                        "level": self._suspension.consecutive_poor,
                        "probation_delay": probation_delay,
                        "target": target_duration,
                    },
                )
            )

        self.stats.total_suspension += delay
        if tel is not None:
            tel.metrics.counters.execution_seconds.inc(duration)
            tel.metrics.counters.suspension_seconds.inc(delay)
            tel.metrics.histograms.testpoint_duration.observe(duration)
            # Gauges are written through their ``value`` attribute: a
            # ``set`` call per processed testpoint is telemetry's own cost.
            gauges = tel.metrics.gauges
            gauges.backoff_level.value = float(self._suspension.consecutive_poor)
            if target_duration is not None:
                gauges.target_duration.value = target_duration
            if tel.emitting:
                tel.emit(
                    obs_events.TestpointProcessed(
                        t=now,
                        src=tel.label,
                        set_index=index,
                        duration=duration,
                        target_duration=target_duration,
                        deltas=deltas,
                        delay=delay,
                        judgment=None if judgment is None else judgment.value,
                        calibrated=calibrated,
                        bootstrap=bootstrap,
                        probation_delay=probation_delay,
                        off_protocol=off_protocol,
                    )
                )
        self._finish(now, delay)
        return TestpointDecision(
            processed=True,
            delay=delay,
            judgment=judgment,
            duration=duration,
            target_duration=target_duration,
            deltas=deltas,
            calibrated=calibrated,
            bootstrap=bootstrap,
            probation_delay=probation_delay,
            off_protocol=off_protocol,
        )

    def mark_resumed(self, when: float) -> None:
        """Correct the release time after the caller served a suspension.

        Real substrates sleep with jitter; calling this with the actual wake
        time keeps the next interval's duration exact.  Optional: without
        it, the regulator assumes the mandated delay was served precisely.
        """
        if self._interval_start is not None and when > self._interval_start:
            self._interval_start = when

    def discard_next_interval(self, reason: str = "external_stall") -> None:
        """Mark the in-flight interval as unusable for rate measurement.

        Called by the supervisor's watchdog when it evicts this thread for
        stalling: the interval ending at the thread's next processed
        testpoint spans the stall, so that testpoint will adopt its
        counters, rebase, and contribute nothing to calibration or the
        sign test.  ``reason`` becomes the decision's
        :attr:`TestpointDecision.anomaly` and the ``anomaly`` event's tag.
        """
        self._discard_next = reason

    # -- internals --------------------------------------------------------------
    def _discard_anomalous(
        self,
        now: float,
        anomaly: str,
        *,
        duration: float = 0.0,
        deltas: tuple[float, ...] = (),
        bootstrap: bool = False,
        off_protocol: bool = False,
        detail: str = "",
    ) -> TestpointDecision:
        """Drop the current sample, rebase times, report the anomaly."""
        tel = self._telemetry
        if tel is not None:
            tel.metrics.counters.discards_anomaly.inc()
            tel.emit(
                obs_events.AnomalyDetected(
                    t=now, src=tel.label, anomaly=anomaly, value=duration, detail=detail
                )
            )
            tel.emit(
                obs_events.SampleDiscarded(
                    t=now, src=tel.label, reason=anomaly, duration=duration
                )
            )
            tel.emit(
                obs_events.RecoveryAction(
                    t=now, src=tel.label, action="sample_discarded", detail=anomaly
                )
            )
        self._finish(now, delay=0.0)
        return TestpointDecision(
            processed=True,
            duration=duration,
            deltas=deltas,
            bootstrap=bootstrap,
            off_protocol=off_protocol,
            anomaly=anomaly,
        )

    def _finish(self, now: float, delay: float) -> None:
        self._last_arrival = now
        self._interval_start = now + delay
        self._resume_at = now + delay

    def _count_processed(self, tel: "Telemetry | None", now: float) -> bool:
        """Count one processed testpoint after the priming call.

        Returns whether the thread is still in bootstrap afterwards, and
        reports the bootstrap exit when this testpoint ended it.
        """
        limit = self._config.bootstrap_testpoints
        was_bootstrap = self._processed_testpoints < limit
        self._processed_testpoints += 1
        self.stats.processed += 1
        bootstrap = self._processed_testpoints < limit
        if tel is not None:
            tel.metrics.counters.testpoints_processed.inc()
            if was_bootstrap and not bootstrap:
                tel.emit(
                    obs_events.PhaseTransition(t=now, src=tel.label, phase="regulating")
                )
        return bootstrap

    def _ensure_set(self, index: int, arity: int) -> _MetricSetState:
        state = self._sets.get(index)
        if state is None:
            if arity < 1:
                raise MetricError(
                    f"metric set {index} must have at least one metric"
                )
            state = _MetricSetState(
                arity,
                make_calibrator(
                    arity, self._config, telemetry=self._telemetry, set_index=index
                ),
            )
            self._sets[index] = state
        return state

    def _validate_counters(
        self, state: _MetricSetState, counters: Sequence[float]
    ) -> tuple[float, ...]:
        if len(counters) != state.arity:
            raise MetricError(
                f"metric set expects {state.arity} metrics, got {len(counters)}"
            )
        values = tuple(map(float, counters))
        # Every metric's finiteness is checked before any monotonicity; the
        # loops that name the offending metric run only on the error path.
        for value in values:
            if not -_INF < value < _INF:
                for i, bad in enumerate(values):
                    if not -_INF < bad < _INF:
                        raise MetricError(f"metric {i} is not finite: {bad}")
        last = state.last_counters
        if last is not None and any(map(operator.lt, values, last)):
            for i, (new, old) in enumerate(zip(values, last)):
                if new < old:
                    raise MetricError(
                        f"metric {i} regressed from {old} to {new}; counters "
                        "must be cumulative and monotone"
                    )
        return values
