"""The supervised regulator daemon: an asyncio IPC superintendent.

:class:`RegulatorDaemon` promotes the in-process realtime adapter to a
long-running service (ROADMAP item 5, the paper's §4.5 superintendent as
something you can actually deploy): real OS worker subprocesses connect
over a local Unix socket, report progress through the JSON-line protocol
of :mod:`repro.daemon.protocol`, and are time-multiplexed and suspended
by the same pure :class:`~repro.core.supervisor.Supervisor` that drives
the simulator — the daemon only supplies the wire, the clock, and the
failure handling.

Robustness is the design center; every mechanism pairs a failure with a
recovery the telemetry trace can prove happened:

* **liveness** — every worker frame refreshes ``last_seen``; a worker
  that owes the daemon a testpoint and goes silent past the heartbeat
  timeout is evicted (``peer_unresponsive`` → ``worker_evicted``), its
  execution slot released so siblings keep regulating;
* **crash recovery** — a worker whose connection drops while registered
  is unregistered and its slot freed (``worker_lost`` →
  ``slot_released``); daemon-spawned workers are respawned with capped
  exponential backoff (``worker_exit`` → ``worker_restarted``);
* **idempotent IPC** — retransmitted testpoints (the client's answer to
  a dropped or truncated frame) are served from the per-session decision
  cache (``resend_served`` / ``retransmit_absorbed``), duplicated
  replies are discarded client-side and acknowledged server-side
  (``duplicate_discarded``);
* **crash-safe calibration** — targets journal through
  :class:`~repro.daemon.journal.StateJournal` (fsynced write-ahead
  records) between atomic :class:`~repro.core.persistence.TargetStore`
  snapshots, so a ``kill -9`` loses at most one journal interval and a
  restart restores state bit-identically (``state_restored``, digests
  exposed over the control protocol);
* **graceful drain** — SIGTERM/SIGINT snapshot every regulator, compact
  the journal, notify workers (``shutdown`` frames), and only then exit
  (``drain_flush``);
* **observability isolation** — telemetry flows through
  :class:`~repro.obs.telemetry.Telemetry`'s failure-absorbing emit path
  and a :class:`~repro.obs.flightrec.FlightRecorder` auto-dumps the
  event ring on every injected fault; a broken sink never blocks a
  regulation decision.

Chaos (:mod:`repro.daemon.chaos`) is wired into the same read/write
paths the real faults would hit, so the soak harness exercises exactly
the recovery machinery listed above.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro import __version__
from repro.core.config import DEFAULT_CONFIG, MannersConfig, check_interval
from repro.core.errors import MannersError, MetricError, PersistenceError
from repro.core.persistence import TargetStore
from repro.core.supervisor import Supervisor
from repro.daemon.chaos import ChaosState
from repro.daemon.journal import StateJournal, state_digest
from repro.daemon.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    require_fields,
)
from repro.faults.plan import FaultPlan
from repro.obs import events as obs_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["WorkerSpec", "RegulatorDaemon"]

#: How long a connecting peer gets to complete its handshake.
_HANDSHAKE_TIMEOUT = 10.0

#: Outbound frame ops the chaos wire hooks may damage (never handshake
#: or shutdown frames — those faults are modelled as connection loss).
_CHAOS_SENDABLE = ("decision", "wait", "pong")


def _frame_int(frame: Mapping[str, Any], name: str, default: int | None = None) -> int:
    """A frame's integer field; a float, bool or string is a protocol error."""
    value = frame.get(name, default)
    if value.__class__ is not int:
        raise ProtocolError(f"{frame.get('op')} {name} must be an integer, got {value!r}")
    return value


def _frame_metrics(frame: Mapping[str, Any]) -> list[float]:
    """A testpoint frame's metrics: a list of numbers, bools excluded.

    A string would otherwise be read character by character.
    """
    raw = frame["metrics"]
    if raw.__class__ is not list or not all(
        v.__class__ is int or v.__class__ is float for v in raw
    ):
        raise ProtocolError(f"testpoint metrics must be a list of numbers, got {raw!r}")
    return [float(v) for v in raw]


class WorkerSpec:
    """One worker subprocess the daemon spawns and supervises."""

    __slots__ = ("kind", "name", "app_id", "unit_bytes")

    def __init__(
        self, kind: str, name: str, app_id: str | None = None, unit_bytes: int = 262144
    ) -> None:
        self.kind = kind
        self.name = name
        self.app_id = app_id if app_id is not None else name
        self.unit_bytes = unit_bytes

    @classmethod
    def parse(cls, text: str) -> list["WorkerSpec"]:
        """Parse a CLI spec like ``compressor:w1,groveler:w2``."""
        specs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            kind, _, name = part.partition(":")
            if not name:
                raise ValueError(f"worker spec {part!r} is not KIND:NAME")
            specs.append(cls(kind=kind, name=name))
        return specs


class _Session:
    """Daemon-side state for one connected worker."""

    __slots__ = (
        "name",
        "app_id",
        "writer",
        "last_seen",
        "last_seq",
        "last_decision",
        "parked",
        "seated",
        "hang_until",
        "dropped_seqs",
        "client_stats",
        "registered",
        "testpoints",
        "closed",
    )

    def __init__(self, name: str, app_id: str, writer: asyncio.StreamWriter) -> None:
        self.name = name
        self.app_id = app_id
        self.writer = writer
        self.last_seen = 0.0
        self.last_seq = 0
        self.last_decision: dict[str, Any] | None = None
        self.parked = False
        self.seated = asyncio.Event()
        self.hang_until = 0.0
        self.dropped_seqs: set[int] = set()
        self.client_stats = {"resends": 0, "dups": 0, "bad_frames": 0}
        self.registered = False
        self.testpoints = 0
        self.closed = False


class RegulatorDaemon:
    """Supervised IPC regulation service over a local Unix socket."""

    def __init__(
        self,
        socket_path: str,
        state_dir: str | None = None,
        config: MannersConfig = DEFAULT_CONFIG,
        telemetry: "Telemetry | None" = None,
        workers: Sequence[WorkerSpec] = (),
        chaos_plan: FaultPlan | None = None,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 5.0,
        save_interval: float = 30.0,
        journal_interval: float = 1.0,
        fsync_journal: bool = True,
        restart_backoff: float = 0.25,
        restart_backoff_cap: float = 5.0,
    ) -> None:
        self.heartbeat_interval = check_interval("heartbeat_interval", heartbeat_interval)
        self.heartbeat_timeout = check_interval("heartbeat_timeout", heartbeat_timeout)
        self.save_interval = check_interval("save_interval", save_interval)
        self.journal_interval = check_interval("journal_interval", journal_interval)
        self.socket_path = socket_path
        self._config = config
        self._telemetry = telemetry
        self._supervisor = Supervisor(
            config, process_id="daemon", telemetry=telemetry
        )
        self._store = (
            TargetStore(state_dir, strict=False, telemetry=telemetry)
            if state_dir is not None
            else None
        )
        self._journal = (
            StateJournal(state_dir, fsync=fsync_journal)
            if state_dir is not None
            else None
        )
        self._worker_specs = list(workers)
        self._chaos_plan = chaos_plan
        self.chaos = ChaosState()
        self._restart_backoff = restart_backoff
        self._restart_backoff_cap = restart_backoff_cap

        self._sessions: dict[str, _Session] = {}
        self._worker_procs: dict[str, asyncio.subprocess.Process] = {}
        self._journal_digests: dict[str, str] = {}
        self._restored_states: dict[str, Mapping[str, Any]] = {}
        #: Digest of each application's state as restored at registration
        #: (the bit-identical-restore claim, queryable over control IPC).
        self.restored_digests: dict[str, str] = {}
        self.counters: dict[str, int] = {
            "testpoints": 0,
            "decisions": 0,
            "suspensions": 0,
            "evictions": 0,
            "worker_restarts": 0,
            "journal_appends": 0,
            "snapshots": 0,
            "faults_injected": 0,
            "recoveries": 0,
            "protocol_errors": 0,
        }
        self._started_at = 0.0
        self._stopping = False
        self._drain_reason: str | None = None
        self._drained = asyncio.Event()
        self._kick = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._tasks: list[asyncio.Task] = []

    # -- time ------------------------------------------------------------------
    @staticmethod
    def _now() -> float:
        return time.monotonic()

    # -- lifecycle -------------------------------------------------------------
    async def run(
        self,
        duration: float | None = None,
        ready: asyncio.Event | None = None,
        install_signals: bool = False,
    ) -> None:
        """Serve until drained (signal, control ``stop``, or ``duration``).

        ``ready`` is set once the socket is listening (tests and the soak
        harness use it to sequence worker startup).  ``install_signals``
        arms SIGTERM/SIGINT drain handlers (main-thread only).
        """
        self._started_at = self._now()
        self._restore_journal()
        # A kill -9 leaves the previous incarnation's socket file behind;
        # binding must not fail because the daemon died ungracefully.
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        self._server = await asyncio.start_unix_server(
            self._on_connection, path=self.socket_path
        )
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(
                        signum, self.request_drain, signal.Signals(signum).name
                    )
        self._tasks = [
            asyncio.create_task(self._scheduler_loop()),
            asyncio.create_task(self._every(self.heartbeat_interval, self._liveness_sweep)),
        ]
        if self._store is not None:
            self._tasks += [
                asyncio.create_task(self._every(self.journal_interval, self._journal_sweep)),
                asyncio.create_task(self._every(self.save_interval, self._persist_all)),
            ]
        if self._chaos_plan is not None and len(self._chaos_plan):
            self._tasks.append(asyncio.create_task(self._chaos_loop()))
        for spec in self._worker_specs:
            self._tasks.append(asyncio.create_task(self._supervise_worker(spec)))
        if duration is not None:
            self._tasks.append(asyncio.create_task(self._deadline(duration)))
        if ready is not None:
            ready.set()
        await self._drained.wait()
        await self._shutdown()

    def request_drain(self, reason: str = "requested") -> None:
        """Begin a graceful drain (idempotent; safe from signal handlers)."""
        if self._stopping:
            return
        self._stopping = True
        self._drain_reason = reason
        self._drained.set()
        # Unpark everyone so their handlers can finish and observe the drain.
        for session in self._sessions.values():
            session.seated.set()

    async def _deadline(self, duration: float) -> None:
        await asyncio.sleep(duration)
        self.request_drain("duration")

    async def _shutdown(self) -> None:
        # Stop accepting new peers first.
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        # Tell workers to finish; they exit and their supervision tasks see
        # the drain flag and do not respawn them.
        for session in list(self._sessions.values()):
            with contextlib.suppress(Exception):
                session.writer.write(encode_frame({"op": "shutdown"}))
                await session.writer.drain()
        # Flush calibration: snapshot every known state, then drop the
        # journal (its records are now covered by the atomic snapshots).
        self._persist_all(final=True)
        self._emit_recovery("drain_flush", detail=self._drain_reason or "")
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        for proc in self._worker_procs.values():
            if proc.returncode is None:
                with contextlib.suppress(ProcessLookupError):
                    proc.terminate()
        # Reap before the loop closes, or the subprocess transports leak
        # "event loop is closed" warnings from their exit callbacks.
        for proc in self._worker_procs.values():
            if proc.returncode is None:
                try:
                    await asyncio.wait_for(proc.wait(), timeout=3.0)
                except (asyncio.TimeoutError, Exception):
                    with contextlib.suppress(ProcessLookupError):
                        proc.kill()
                    with contextlib.suppress(Exception):
                        await proc.wait()
        for session in list(self._sessions.values()):
            with contextlib.suppress(Exception):
                session.writer.close()
        if self._journal is not None:
            self._journal.close()
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        tel = self._telemetry
        if tel is not None:
            tel.flush()

    # -- startup restore -------------------------------------------------------
    def _restore_journal(self) -> None:
        """Replay the write-ahead journal into the restore cache."""
        if self._journal is None:
            return
        latest = self._journal.latest_states()
        if self._journal.truncated_tail:
            self._emit_anomaly(
                "journal_torn", detail=str(self._journal.path)
            )
            self._emit_recovery("journal_truncated", detail=str(self._journal.path))
        for app_id, record in latest.items():
            self._restored_states[app_id] = record.state
            self._journal_digests[app_id] = record.digest

    def _restore_state_for(self, app_id: str) -> Mapping[str, Any] | None:
        """The persisted state for one application: journal over snapshot."""
        state = self._restored_states.get(app_id)
        if state is not None:
            return state
        if self._store is None:
            return None
        try:
            state = self._store.load(app_id)
        except PersistenceError as exc:
            self._emit_anomaly("corrupt_target", detail=str(exc))
            self._emit_recovery("rebootstrap", detail=app_id)
            return None
        if state is not None:
            self._restored_states[app_id] = state
        return state

    # -- connection handling ---------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await asyncio.wait_for(reader.readline(), _HANDSHAKE_TIMEOUT)
            hello = decode_frame(line.rstrip(b"\n"))
            if hello.get("op") != "hello":
                raise ProtocolError(f"expected hello, got {hello.get('op')!r}")
            proto = hello.get("proto")
            if proto != PROTOCOL_VERSION:
                self._emit_anomaly("protocol_mismatch", detail=f"peer proto {proto!r}")
                writer.write(
                    encode_frame(
                        {
                            "op": "reject",
                            "reason": f"protocol version {proto!r} unsupported "
                            f"(daemon speaks {PROTOCOL_VERSION})",
                        }
                    )
                )
                await writer.drain()
                return
        except (
            asyncio.TimeoutError,
            ProtocolError,
            ConnectionError,
            asyncio.IncompleteReadError,
        ) as exc:
            self.counters["protocol_errors"] += 1
            self._emit_anomaly("protocol_error", detail=str(exc))
            with contextlib.suppress(Exception):
                writer.close()
            return
        role = hello.get("role", "worker")
        if role == "control":
            await self._control_loop(reader, writer)
            return
        await self._worker_loop(hello, reader, writer)

    async def _worker_loop(
        self,
        hello: Mapping[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            require_fields(hello, "name")
            priority = _frame_int(hello, "priority", 0)
        except ProtocolError as exc:
            self.counters["protocol_errors"] += 1
            self._emit_anomaly("protocol_error", detail=str(exc))
            writer.close()
            return
        name = str(hello["name"])
        app_id = str(hello.get("app_id") or name)
        # A reconnecting worker (its answer to a damaged connection)
        # displaces its old session rather than being refused.
        old = self._sessions.get(name)
        if old is not None:
            self._emit_recovery("reconnect_rebound", detail=name)
            self._cleanup_session(old, expected=True)
        session = _Session(name, app_id, writer)
        session.last_seen = self._now()
        self._sessions[name] = session
        regulator = self._supervisor.register_thread(name, priority=priority)
        session.registered = True
        persisted = self._restore_state_for(app_id)
        if persisted is not None:
            try:
                regulator.import_state(persisted)
            except MannersError as exc:
                # As unusable as an unreadable file: forget it.  The import
                # changed nothing, so the worker runs on a fresh regulator.
                self._emit_anomaly("corrupt_target", detail=f"{app_id}: {exc}")
                self._emit_recovery("rebootstrap", detail=app_id)
                self._restored_states.pop(app_id, None)
            else:
                digest = state_digest(regulator.export_state())
                if app_id not in self.restored_digests:
                    self.restored_digests[app_id] = digest
                    self._emit_recovery("state_restored", detail=app_id)
                    expected = self._journal_digests.get(app_id)
                    if expected is not None and expected != digest:
                        self._emit_anomaly(
                            "restore_mismatch",
                            detail=f"{app_id}: journal {expected[:12]} != restored {digest[:12]}",
                        )
        writer.write(
            encode_frame(
                {"op": "welcome", "proto": PROTOCOL_VERSION, "server": __version__}
            )
        )
        await writer.drain()
        expected_exit = False
        try:
            while not self._stopping:
                line = await reader.readline()
                if not line:
                    break
                session.last_seen = self._now()
                try:
                    frame = decode_frame(line.rstrip(b"\n"))
                except ProtocolError as exc:
                    # Inbound damage: count it and wait for the retransmit.
                    self.counters["protocol_errors"] += 1
                    self._emit_anomaly("bad_frame", detail=f"{name}: {exc}")
                    continue
                await self._maybe_hang(session)
                op = frame.get("op")
                if op == "testpoint":
                    await self._on_testpoint(session, frame)
                elif op == "ping":
                    await self._send(session, {"op": "pong", "seq": frame.get("seq", 0)})
                elif op == "bye":
                    expected_exit = True
                    break
                else:
                    self._emit_anomaly(
                        "protocol_error", detail=f"{name}: unexpected {op!r}"
                    )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if self._sessions.get(name) is session:
                self._cleanup_session(session, expected=expected_exit or self._stopping)

    def _cleanup_session(self, session: _Session, expected: bool) -> None:
        """Unregister a departed worker and free its execution slot."""
        if session.closed:
            return
        session.closed = True
        session.seated.set()
        if self._sessions.get(session.name) is session:
            del self._sessions[session.name]
        if session.registered:
            # Persist what the departed worker learned before dropping it.
            self._journal_session(session)
            with contextlib.suppress(Exception):
                self._supervisor.unregister_thread(session.name)
            session.registered = False
            if not expected:
                self._emit_anomaly("worker_lost", detail=session.name)
                self._emit_recovery("slot_released", detail=session.name)
        with contextlib.suppress(Exception):
            session.writer.close()
        self._kick.set()

    # -- the testpoint path ----------------------------------------------------
    async def _on_testpoint(self, session: _Session, frame: Mapping[str, Any]) -> None:
        try:
            require_fields(frame, "seq", "metrics")
            seq = _frame_int(frame, "seq")
            metrics = _frame_metrics(frame)
            index = _frame_int(frame, "index", 0)
        except (ProtocolError, OverflowError) as exc:
            self.counters["protocol_errors"] += 1
            self._emit_anomaly("bad_frame", detail=f"{session.name}: {exc}")
            return
        self._absorb_client_stats(session, frame.get("stats"))
        if seq in session.dropped_seqs:
            # The retransmit of a frame our chaos hook swallowed.
            session.dropped_seqs.discard(seq)
            self._emit_recovery("retransmit_absorbed", detail=session.name)
        if seq <= session.last_seq:
            # Retransmit of an already-served testpoint: serve the cached
            # decision again rather than double-counting progress.
            if seq == session.last_seq and session.last_decision is not None:
                self._emit_recovery("resend_served", detail=session.name)
                await self._send(session, session.last_decision)
            return
        fault = self.chaos.take(session.name, ("msg_drop", "msg_delay"))
        delayed = False
        if fault is not None:
            if fault.kind == "msg_drop":
                self._emit_fault(fault.kind, session.name, fault.param)
                session.dropped_seqs.add(seq)
                return
            self._emit_fault(fault.kind, session.name, fault.param)
            await asyncio.sleep(fault.param)
            delayed = True
        now = self._now()
        try:
            decision = self._supervisor.on_testpoint(now, session.name, index, metrics)
        except MetricError as exc:
            self._emit_anomaly("metric_error", detail=f"{session.name}: {exc}")
            await self._send(session, {"op": "decision", "seq": seq, "processed": False,
                                       "delay": 0.0, "error": str(exc)})
            return
        self.counters["testpoints"] += 1
        session.testpoints += 1
        if decision.processed:
            if decision.delay > 0.0:
                self.counters["suspensions"] += 1
            await self._park(session)
            if session.closed or self._stopping:
                return
            resumed = self._now()
            self._supervisor.regulator(session.name).mark_resumed(resumed)
            tel = self._telemetry
            if tel is not None and decision.delay > 0.0:
                tel.tick(resumed)
                tel.emit(
                    obs_events.SuspensionEnded(
                        t=resumed, src=session.name, slept=resumed - now
                    )
                )
        reply = {
            "op": "decision",
            "seq": seq,
            "processed": decision.processed,
            "delay": decision.delay,
            "judgment": decision.judgment.value if decision.judgment else None,
            "bootstrap": decision.bootstrap,
            "off_protocol": decision.off_protocol,
        }
        session.last_seq = seq
        session.last_decision = reply
        self.counters["decisions"] += 1
        await self._send(session, reply)
        if delayed:
            self._emit_recovery("delayed_delivery", detail=session.name)

    async def _park(self, session: _Session) -> None:
        """Hold the testpoint reply until the worker is seated again.

        The supervisor's eligibility gate covers both the mandated
        suspension and the wait for the execution slot.  While parked the
        worker receives ``wait`` frames each heartbeat interval so its
        short per-message timeout never mistakes a long suspension for a
        dead daemon.
        """
        session.parked = True
        session.seated.clear()
        self._kick.set()
        try:
            while not self._stopping and not session.closed:
                try:
                    await asyncio.wait_for(
                        session.seated.wait(), timeout=self.heartbeat_interval
                    )
                    return
                except asyncio.TimeoutError:
                    await self._send(session, {"op": "wait", "seq": session.last_seq + 1})
        finally:
            session.parked = False

    def _absorb_client_stats(self, session: _Session, stats: Any) -> None:
        """Fold the client's piggybacked recovery counters into the trace.

        The client deduplicates replies and skips damaged frames on its
        side of the wire; the cumulative counters it reports are the
        daemon's only evidence, so increments are what emit the matching
        recovery events.
        """
        if not isinstance(stats, Mapping):
            return
        previous = session.client_stats
        for key, action in (
            ("dups", "duplicate_discarded"),
            ("bad_frames", "bad_frame_skipped"),
        ):
            try:
                value = int(stats.get(key, 0))
            except (TypeError, ValueError):
                continue
            if value > previous.get(key, 0):
                self._emit_recovery(action, detail=session.name)
            previous[key] = max(previous.get(key, 0), value)
        with contextlib.suppress(TypeError, ValueError):
            previous["resends"] = max(
                previous.get("resends", 0), int(stats.get("resends", 0))
            )

    # -- outbound frames + chaos wire hooks ------------------------------------
    async def _maybe_hang(self, session: _Session) -> None:
        """Realize an armed ``peer_hang``: go silent toward this worker."""
        fault = self.chaos.take(session.name, ("peer_hang",))
        if fault is None:
            return
        self._emit_fault(fault.kind, session.name, fault.param)
        session.hang_until = self._now() + fault.param
        await asyncio.sleep(fault.param)
        session.hang_until = 0.0
        self._emit_recovery("hang_recovered", detail=session.name)

    async def _send(self, session: _Session, frame: Mapping[str, Any]) -> None:
        """Write one frame to a worker, applying outbound chaos."""
        if session.closed:
            return
        try:
            data = encode_frame(frame)
        except ProtocolError as exc:  # pragma: no cover - daemon-built frames
            self._emit_anomaly("protocol_error", detail=str(exc))
            return
        if frame.get("op") in _CHAOS_SENDABLE:
            fault = self.chaos.take(session.name, ("msg_dup", "frame_truncate"))
            if fault is not None:
                self._emit_fault(fault.kind, session.name, fault.param)
                if fault.kind == "msg_dup":
                    data = data + data
                else:  # frame_truncate: a torn write, newline included so
                    # the worker sees exactly one unparseable line.
                    data = data[: max(len(data) // 2, 1)] + b"\n"
        try:
            session.writer.write(data)
            await session.writer.drain()
        except (ConnectionError, RuntimeError):
            self._cleanup_session(session, expected=False)

    # -- background loops ------------------------------------------------------
    async def _scheduler_loop(self) -> None:
        """Seat parked workers: the daemon's poll/check_hung pump."""
        while not self._stopping:
            now = self._now()
            evicted = self._supervisor.check_hung(now)
            if evicted is not None:
                self.counters["evictions"] += 1
            owner = self._supervisor.poll(now)
            if owner is not None:
                session = self._sessions.get(owner)
                if session is not None and session.parked:
                    session.seated.set()
            wake = self._supervisor.next_poll_time(now)
            timeout = 0.05
            if wake is not None:
                timeout = min(max(wake - now, 0.005), 0.2)
            self._kick.clear()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._kick.wait(), timeout)

    async def _every(self, interval: float, action: Callable[[], None]) -> None:
        """Run ``action()`` every ``interval`` seconds until the drain."""
        while True:
            await asyncio.sleep(interval)
            if self._stopping:
                return
            action()

    def _liveness_sweep(self) -> None:
        """Evict workers that owe a testpoint and have gone silent."""
        now = self._now()
        for session in list(self._sessions.values()):
            if session.parked or session.closed:
                continue  # parked workers owe us nothing; we owe them
            if now < session.hang_until + self.heartbeat_timeout:
                continue  # self-inflicted silence (peer_hang chaos)
            if now - session.last_seen > self.heartbeat_timeout:
                self.counters["evictions"] += 1
                self._emit_anomaly(
                    "peer_unresponsive",
                    value=now - session.last_seen,
                    detail=session.name,
                )
                self._emit_recovery("worker_evicted", detail=session.name)
                self._cleanup_session(session, expected=True)

    def _journal_sweep(self) -> None:
        """Journal every session whose calibration changed."""
        for session in list(self._sessions.values()):
            self._journal_session(session)

    def _journal_session(self, session: _Session) -> None:
        if self._journal is None or not session.registered:
            return
        try:
            state = self._supervisor.regulator(session.name).export_state()
        except Exception:
            return
        digest = state_digest(state)
        if self._journal_digests.get(session.app_id) == digest:
            return
        try:
            self._journal.append(session.app_id, state)
        except PersistenceError as exc:
            # Journal failure degrades durability, never regulation.
            self._emit_anomaly("save_failure", detail=str(exc))
            return
        self._journal_digests[session.app_id] = digest
        self._restored_states[session.app_id] = state
        self.counters["journal_appends"] += 1

    def _persist_all(self, final: bool = False) -> None:
        """Snapshot every known application state; compact on full success."""
        if self._store is None:
            return
        states: dict[str, Mapping[str, Any]] = dict(self._restored_states)
        for session in self._sessions.values():
            if not session.registered:
                continue
            try:
                states[session.app_id] = self._supervisor.regulator(
                    session.name
                ).export_state()
            except Exception:
                continue
        all_saved = True
        for app_id, state in states.items():
            try:
                self._store.save(app_id, state)
                self.counters["snapshots"] += 1
                self._journal_digests[app_id] = state_digest(state)
                self._restored_states[app_id] = state
            except PersistenceError as exc:
                all_saved = False
                self._emit_anomaly("save_failure", detail=f"{app_id}: {exc}")
                self._emit_recovery("save_skipped", detail=app_id)
        if all_saved and self._journal is not None:
            with contextlib.suppress(PersistenceError):
                self._journal.compact()
        if final and self._journal is not None and not all_saved:
            # Keep the journal: it still holds the states the snapshot
            # tier failed to take.
            pass

    async def _chaos_loop(self) -> None:
        """Arm each planned fault at its scheduled offset."""
        pairs = self.chaos.arm_plan(self._chaos_plan)
        start = self._now()
        for at, spec in pairs:
            delay = start + at - self._now()
            if delay > 0:
                await asyncio.sleep(delay)
            if self._stopping:
                return
            if spec.kind == "worker_kill":
                self._kill_worker(spec.target, spec.param)
            elif spec.kind == "daemon_kill":
                continue  # the soak harness owns the daemon's process
            else:
                self.chaos.arm(spec.kind, spec.target, spec.param)

    def _kill_worker(self, name: str, param: float = 0.0) -> None:
        proc = self._worker_procs.get(name)
        if proc is None or proc.returncode is not None:
            return
        self._emit_fault("worker_kill", name, param)
        with contextlib.suppress(ProcessLookupError):
            proc.kill()

    async def _supervise_worker(self, spec: WorkerSpec) -> None:
        """Spawn one worker subprocess; respawn with capped backoff."""
        backoff = self._restart_backoff
        while not self._stopping:
            started = self._now()
            try:
                proc = await asyncio.create_subprocess_exec(
                    sys.executable,
                    "-m",
                    "repro.daemon.worker",
                    "--socket",
                    self.socket_path,
                    "--name",
                    spec.name,
                    "--kind",
                    spec.kind,
                    "--app-id",
                    spec.app_id,
                    "--unit-bytes",
                    str(spec.unit_bytes),
                )
            except OSError as exc:
                self._emit_anomaly("worker_spawn_failed", detail=f"{spec.name}: {exc}")
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2.0, self._restart_backoff_cap)
                continue
            self._worker_procs[spec.name] = proc
            returncode = await proc.wait()
            if self._stopping:
                return
            self._emit_anomaly(
                "worker_exit", value=float(returncode), detail=spec.name
            )
            if self._now() - started > 5.0:
                backoff = self._restart_backoff  # it ran; reset the backoff
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2.0, self._restart_backoff_cap)
            if self._stopping:
                return
            self.counters["worker_restarts"] += 1
            self._emit_recovery("worker_restarted", detail=spec.name)

    # -- control protocol ------------------------------------------------------
    async def _control_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(
            encode_frame(
                {"op": "welcome", "proto": PROTOCOL_VERSION, "server": __version__}
            )
        )
        await writer.drain()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    frame = decode_frame(line.rstrip(b"\n"))
                except ProtocolError as exc:
                    writer.write(encode_frame({"op": "error", "reason": str(exc)}))
                    await writer.drain()
                    continue
                reply = self._control_reply(frame)
                writer.write(encode_frame(reply))
                await writer.drain()
                if frame.get("op") == "stop":
                    self.request_drain("control")
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    def _control_reply(self, frame: Mapping[str, Any]) -> dict[str, Any]:
        op = frame.get("op")
        seq = frame.get("seq", 0)
        if op == "status":
            now = self._now()
            return {
                "op": "ok",
                "seq": seq,
                "uptime": now - self._started_at,
                "counters": dict(self.counters),
                "workers": {
                    name: {
                        "app_id": s.app_id,
                        "parked": s.parked,
                        "testpoints": s.testpoints,
                        "silent_for": now - s.last_seen,
                    }
                    for name, s in self._sessions.items()
                },
            }
        if op == "digest":
            current: dict[str, str] = {}
            for session in self._sessions.values():
                if not session.registered:
                    continue
                try:
                    current[session.app_id] = state_digest(
                        self._supervisor.regulator(session.name).export_state()
                    )
                except Exception:
                    continue
            return {
                "op": "ok",
                "seq": seq,
                "restored": dict(self.restored_digests),
                "journal": dict(self._journal_digests),
                "current": current,
            }
        if op == "save":
            self._persist_all()
            return {"op": "ok", "seq": seq, "snapshots": self.counters["snapshots"]}
        if op == "inject":
            kind = frame.get("kind")
            target = str(frame.get("target", ""))
            param = float(frame.get("param", 0.0))
            try:
                if kind == "worker_kill":
                    self._kill_worker(target, param)
                else:
                    self.chaos.arm(str(kind), target, param)
            except Exception as exc:
                return {"op": "error", "seq": seq, "reason": str(exc)}
            return {"op": "ok", "seq": seq}
        if op == "stop":
            return {"op": "ok", "seq": seq, "draining": True}
        return {"op": "error", "seq": seq, "reason": f"unknown control op {op!r}"}

    # -- telemetry helpers -----------------------------------------------------
    def _emit_fault(self, kind: str, target: str, param: float = 0.0) -> None:
        self.counters["faults_injected"] += 1
        tel = self._telemetry
        if tel is not None:
            now = self._now()
            tel.tick(now)
            tel.emit(
                obs_events.FaultInjected(
                    t=now, src="daemon", fault=kind, target=target, param=param
                )
            )
            tel.flush()

    def _emit_anomaly(self, anomaly: str, value: float = 0.0, detail: str = "") -> None:
        tel = self._telemetry
        if tel is not None:
            now = self._now()
            tel.tick(now)
            tel.emit(
                obs_events.AnomalyDetected(
                    t=now, src="daemon", anomaly=anomaly, value=value, detail=detail
                )
            )

    def _emit_recovery(self, action: str, detail: str = "") -> None:
        self.counters["recoveries"] += 1
        tel = self._telemetry
        if tel is not None:
            now = self._now()
            tel.tick(now)
            tel.emit(
                obs_events.RecoveryAction(
                    t=now, src="daemon", action=action, detail=detail
                )
            )
            tel.flush()
