"""Wall-clock regulation of real Python threads (standard library only).

This is the deployable counterpart of the paper's MS Manners library
(section 7.1) for actual applications: each low-importance worker thread
calls :meth:`RealTimeRegulator.testpoint` with its cumulative progress
counters, and the call blocks until the thread may proceed — sleeping out
regulator-mandated suspensions and waiting its turn under time-multiplex
isolation (at most one regulated thread executes at a time, chosen by
priority and decay-usage scheduling).

The same pure components drive this adapter and the simulator bridge; only
the clock (:func:`time.monotonic`) and the blocking mechanism
(:class:`threading.Condition`) differ.

Example::

    regulator = RealTimeRegulator()
    regulator.register(priority=1)          # optional; auto on first call
    while work:
        item = work.pop()
        process(item)
        done += 1
        regulator.testpoint([done])         # blocks as needed

Targets persist across restarts when constructed with an ``app_id`` and a
:class:`~repro.core.persistence.TargetStore`.
"""

from __future__ import annotations

import signal
import threading
import time
from typing import TYPE_CHECKING, Sequence

from repro.core.config import DEFAULT_CONFIG, MannersConfig, check_interval
from repro.core.controller import TestpointDecision
from repro.core.errors import MannersError, PersistenceError, RegulationStateError
from repro.core.persistence import TargetStore
from repro.core.superintendent import Superintendent
from repro.core.supervisor import Supervisor
from repro.obs import lazy as obs_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["RealTimeRegulator"]

#: Upper bound on one condition wait, so hung-thread checks run regularly.
_MAX_WAIT = 1.0


class RealTimeRegulator:
    """Blocking, thread-safe MS Manners front end for one process."""

    def __init__(
        self,
        config: MannersConfig = DEFAULT_CONFIG,
        app_id: str | None = None,
        store: TargetStore | None = None,
        superintendent: Superintendent | None = None,
        process_id: object = None,
        telemetry: "Telemetry | None" = None,
        save_interval: float = 300.0,
    ) -> None:
        if (app_id is None) != (store is None):
            raise ValueError("app_id and store must be provided together")
        self._save_interval = check_interval("save_interval", save_interval)
        self._config = config
        self._telemetry = telemetry
        self._supervisor = Supervisor(
            config,
            superintendent=superintendent,
            process_id=process_id if process_id is not None else "realtime",
            telemetry=telemetry,
        )
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._app_id = app_id
        self._store = store
        #: Monotonic time of the next periodic target save.
        self._next_save = time.monotonic() + self._save_interval
        self._closed = False
        #: Signals whose handlers :meth:`install_signal_handlers` replaced,
        #: mapped to the handlers they displaced (for chaining/uninstall).
        self._previous_handlers: dict[int, object] = {}
        #: Persistence failures absorbed (an unreadable or rejected
        #: snapshot fell back to bootstrap, a save was skipped); regulation
        #: is never interrupted by storage.
        self.persistence_errors = 0

    # -- registration ---------------------------------------------------------------
    def register(self, priority: int = 0, thread_id: int | None = None) -> None:
        """Enroll the calling (or named) thread for regulation.

        Threads are auto-registered with priority 0 on their first
        testpoint; call this first to set a different priority, mirroring
        the paper's priority library call.
        """
        tid = thread_id if thread_id is not None else threading.get_ident()
        with self._lock:
            if tid not in self._supervisor.thread_ids():
                regulator = self._supervisor.register_thread(tid, priority=priority)
                self._load_targets_into(regulator)
            else:
                self._supervisor.set_thread_priority(tid, priority)

    def set_priority(self, priority: int) -> None:
        """Change the calling thread's relative priority."""
        self.register(priority=priority)

    # -- the blocking testpoint -------------------------------------------------------
    def testpoint(
        self, metrics: Sequence[float], index: int = 0
    ) -> TestpointDecision:
        """Report progress; block until this thread may continue.

        Returns the decision for introspection.  Raises
        :class:`RegulationStateError` after :meth:`close`.
        """
        tid = threading.get_ident()
        now = time.monotonic()
        with self._cond:
            if self._closed:
                raise RegulationStateError("regulator is closed")
            if tid not in self._supervisor.thread_ids():
                regulator = self._supervisor.register_thread(tid)
                self._load_targets_into(regulator)
            decision = self._supervisor.on_testpoint(now, tid, index, metrics)
            if not decision.processed:
                return decision
            # This thread just gave up the execution slot: seat the next
            # owner right away and wake waiters so handoff is immediate.
            self._supervisor.poll(time.monotonic())
            self._cond.notify_all()
            # Wait until the supervisor seats this thread.
            while not self._closed:
                current = time.monotonic()
                self._supervisor.check_hung(current)
                owner = self._supervisor.poll(current)
                if owner == tid:
                    break
                wake = self._supervisor.next_poll_time(current)
                timeout = _MAX_WAIT
                if wake is not None:
                    timeout = min(max(wake - current, 0.0), _MAX_WAIT)
                self._cond.wait(timeout=timeout if timeout > 0 else 0.01)
            self._cond.notify_all()
            self._maybe_save_locked()
        resumed = time.monotonic()
        self._supervisor.regulator(tid).mark_resumed(resumed)
        tel = self._telemetry
        if tel is not None and decision.delay > 0.0:
            tel.tick(resumed)
            tel.emit(
                obs_events.SuspensionEnded(
                    t=resumed, src=str(tid), slept=resumed - now
                )
            )
        return decision

    def release(self) -> None:
        """Withdraw the calling thread (call before the thread exits)."""
        tid = threading.get_ident()
        with self._cond:
            if tid in self._supervisor.thread_ids():
                self._supervisor.unregister_thread(tid)
                # Seat the next owner, or hand the machine-wide token back
                # when no thread is left, so peer processes need not wait
                # out the superintendent's staleness timeout.
                self._supervisor.poll(time.monotonic())
            self._cond.notify_all()

    # -- persistence & lifecycle -------------------------------------------------------
    def save_targets(self) -> None:
        """Persist calibration for the calling thread's regulator."""
        with self._lock:
            self._save_locked()

    def close(self) -> None:
        """Persist targets and unblock all waiting threads."""
        self.uninstall_signal_handlers()
        with self._cond:
            self._save_locked()
            self._closed = True
            self._cond.notify_all()

    def install_signal_handlers(
        self, signals: Sequence[int] = (signal.SIGTERM, signal.SIGINT)
    ) -> bool:
        """Flush pending target saves on termination signals.

        A process killed by SIGTERM/SIGINT between periodic saves would
        otherwise lose up to ``save_interval`` seconds of calibration.
        The installed handler calls :meth:`close` (which persists and
        unblocks every waiting thread) and then **chains** to whatever
        handler was installed before, so embedding applications keep
        their own shutdown behavior.

        Returns ``False`` (installing nothing) when called off the main
        thread, where CPython forbids ``signal.signal``.  Idempotent;
        undone by :meth:`uninstall_signal_handlers` (which :meth:`close`
        calls automatically).
        """
        if threading.current_thread() is not threading.main_thread():
            return False
        for signum in signals:
            if signum in self._previous_handlers:
                continue

            def _handler(received: int, frame: object) -> None:
                # Snapshot the displaced handler first: _signal_close
                # uninstalls, which clears the chaining table.
                previous = self._previous_handlers.get(received)
                self._signal_close()
                if callable(previous):
                    previous(received, frame)
                elif previous == signal.SIG_DFL:
                    # Re-deliver with the default disposition so the exit
                    # status still says "killed by signal".
                    signal.signal(received, signal.SIG_DFL)
                    signal.raise_signal(received)

            try:
                self._previous_handlers[signum] = signal.signal(signum, _handler)
            except (OSError, ValueError):
                continue
        return True

    def _signal_close(self) -> None:
        """:meth:`close`, hardened for a signal-handler context.

        A handler runs on the main thread, possibly *interrupting* code
        that holds this regulator's lock — blocking on it forever would
        deadlock the process inside a termination handler.  Bounded
        acquire: normally the save flushes exactly as :meth:`close` does;
        if the lock cannot be taken in time, the regulator is still
        marked closed (unblocking waiters at their next poll) and only
        the final snapshot is sacrificed.
        """
        self.uninstall_signal_handlers()
        acquired = self._lock.acquire(timeout=2.0)
        try:
            if acquired:
                self._save_locked()
            self._closed = True
            if acquired:
                self._cond.notify_all()
        finally:
            if acquired:
                self._lock.release()

    def uninstall_signal_handlers(self) -> None:
        """Restore the handlers :meth:`install_signal_handlers` displaced."""
        if not self._previous_handlers:
            return
        if threading.current_thread() is not threading.main_thread():
            return
        for signum, previous in list(self._previous_handlers.items()):
            try:
                signal.signal(signum, previous)  # type: ignore[arg-type]
            except (OSError, TypeError, ValueError):
                pass
            del self._previous_handlers[signum]

    def __enter__(self) -> "RealTimeRegulator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -------------------------------------------------------------------
    @property
    def supervisor(self) -> Supervisor:
        """The underlying supervisor (diagnostics)."""
        return self._supervisor

    # -- internals --------------------------------------------------------------------------
    def _load_targets_into(self, regulator) -> None:
        if self._store is not None and self._app_id is not None:
            try:
                persisted = self._store.load(self._app_id)
                if persisted is not None:
                    regulator.import_state(persisted)
            except MannersError as exc:
                # Degraded mode: an unreadable target file, or a snapshot
                # import_state rejects (which changes nothing), costs a
                # fresh bootstrap, never a crashed worker thread.
                self._note_persistence_error("rebootstrap", exc)

    def _maybe_save_locked(self) -> None:
        if self._store is None:
            return
        now = time.monotonic()
        if now >= self._next_save:
            self._next_save = now + self._save_interval
            self._save_locked()

    def _save_locked(self) -> None:
        if self._store is None or self._app_id is None:
            return
        tids = self._supervisor.thread_ids()
        if not tids:
            return
        # One thread's calibration represents the application's targets
        # (the paper persists per-application target files).
        state = self._supervisor.regulator(tids[0]).export_state()
        try:
            self._store.save(self._app_id, state)
        except PersistenceError as exc:
            # The store already retried; drop this snapshot and try again
            # at the next save interval rather than unwinding a testpoint.
            self._note_persistence_error("save_skipped", exc)

    def _note_persistence_error(self, action: str, exc: MannersError) -> None:
        self.persistence_errors += 1
        tel = self._telemetry
        if tel is not None:
            tel.emit(
                obs_events.RecoveryAction(
                    t=tel.now, src=tel.label, action=action, detail=str(exc)
                )
            )
            tel.metrics.counters.persistence_errors.inc()
