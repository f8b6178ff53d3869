"""Simulated OS kernel: threads, effect dispatch, and the debug interface.

Simulated application code is written as Python generators yielding
:mod:`repro.simos.effects` objects.  The kernel owns the event engine, one
CPU, any number of disks (optionally sharing a bus), and the thread
lifecycle.  Code between two yields executes in zero simulated time; all
simulated cost flows through effects.

The kernel also exposes the *debug interface* of the paper's section 7.2:
:meth:`Kernel.suspend_thread` and :meth:`Kernel.resume_thread` stop and
restart a thread externally at an arbitrary point, exactly as BeNice does to
unmodified Windows applications via ``SuspendThread``.  A suspended thread
stops consuming CPU immediately; in-flight disk requests complete (the
device does not care) but their completions are parked until resume.

Listeners can subscribe to thread lifecycle events (spawn, block, run,
suspend, resume, exit) to build the execution-duty traces behind the
paper's Figures 7 and 9; a listener that needs only exits (the MS Manners
bridge, which frees a dead thread's slot) subscribes to those alone, so
the per-effect ``run``/``block`` events cost nothing when nobody traces.

An effect the kernel rejects (an unknown disk, a negative delay, a block
out of range, a testpoint from an unregulated thread, ...) fails the
thread that yielded it, exactly as an exception raised by the thread body
does: the thread ends ``FAILED``, listeners see ``exit``, and
:meth:`Kernel.run` re-raises.

For the fault-injection harness (:mod:`repro.faults`) the kernel also
exposes crash and I/O-failure hooks: :meth:`Kernel.kill_thread` terminates
a thread externally at an arbitrary point (including mid-suspension), and
:meth:`Kernel.inject_disk_fault` makes the next N requests to a disk fail
with :class:`DiskFault` delivered into the issuing thread.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Iterable

from repro.simos.bus import Bus
from repro.simos.cpu import CPU, CpuPriority
from repro.simos.disk import Disk, DiskParams
from repro.simos.effects import (
    Condition,
    Delay,
    DiskRead,
    DiskWrite,
    Effect,
    SignalCondition,
    UseCPU,
    WaitCondition,
    Yield,
)
from repro.simos.engine import Engine, SimulationError

__all__ = ["ThreadState", "SimThread", "Kernel", "DiskFault"]


class DiskFault(SimulationError):
    """An injected I/O failure, thrown into the thread that issued the I/O.

    Application threads model error handling by catching this where they
    yield :class:`~repro.simos.effects.DiskRead` /
    :class:`~repro.simos.effects.DiskWrite`; an uncaught fault fails the
    thread like any other exception.
    """

#: Default shared-bus bandwidth: Ultra-Wide SCSI, 40 MB/s.
DEFAULT_BUS_BANDWIDTH = 40_000_000.0

ThreadBody = Generator[Effect, Any, Any]


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""

    NEW = "new"
    RUNNING = "running"  # executing or runnable (between effects)
    BLOCKED = "blocked"  # waiting on an effect
    DONE = "done"
    FAILED = "failed"


# Module-level aliases: the dispatch path compares states by identity.
_RUNNING = ThreadState.RUNNING
_BLOCKED = ThreadState.BLOCKED
_DONE = ThreadState.DONE
_FAILED = ThreadState.FAILED


class SimThread:
    """One simulated thread of execution."""

    __slots__ = (
        "tid",
        "name",
        "body",
        "priority",
        "process",
        "state",
        "blocked_on",
        "suspended",
        "_parked",
        "_pending_cpu",
        "_on_done",
        "result",
        "error",
    )

    _next_tid = 1

    def __init__(
        self,
        name: str,
        body: ThreadBody,
        priority: CpuPriority,
        process: str,
    ) -> None:
        self.tid = SimThread._next_tid
        SimThread._next_tid += 1
        self.name = name
        self.body = body
        self.priority = priority
        self.process = process
        self.state = ThreadState.NEW
        #: What the thread is blocked on (for traces): ``"cpu"``,
        #: ``"disk:<name>"``, ``"sleep"``, ``"cond:<name>"``, ``"manners"``...
        self.blocked_on: str | None = None
        #: Debug-interface suspension flag.
        self.suspended = False
        #: Parked effect completion ``(value, exception)`` delivered while
        #: suspended; at most one of the two is meaningful.
        self._parked: tuple[Any, BaseException | None] | None = None
        #: CPU service remaining when suspension evicted a running burst.
        self._pending_cpu: float | None = None
        #: The kernel's completion callback for this thread, built once at
        #: spawn so effect dispatch never allocates a fresh closure.
        self._on_done: Callable[[], None] | None = None
        #: Generator return value once DONE.
        self.result: Any = None
        #: The exception that killed the thread, if FAILED.
        self.error: BaseException | None = None

    @property
    def alive(self) -> bool:
        """Whether the thread can still make progress."""
        return self.state is not _DONE and self.state is not _FAILED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimThread({self.tid}:{self.name!r}, {self.state.value})"


Listener = Callable[[str, SimThread, float], None]


class Kernel:
    """The simulated machine: engine + CPU + disks + threads."""

    __slots__ = (
        "engine",
        "cpu",
        "bus",
        "disks",
        "_seed",
        "_threads",
        "_listeners",
        "_exit_listeners",
        "_disk_faults",
        "_disk_routes",
        "_handlers",
        "_post_after",
        "_network_links",
    )

    def __init__(
        self,
        seed: int = 0,
        cpu_quantum: float = 0.02,
        bus_bandwidth: float | None = DEFAULT_BUS_BANDWIDTH,
    ) -> None:
        self.engine = Engine()
        #: Bound hot-path scheduler, cached so effect dispatch skips the
        #: ``self.engine.post_after`` attribute chain on every effect.
        self._post_after = self.engine.post_after
        #: Link registry installed by :func:`repro.simos.network.attach`.
        self._network_links = None
        self.cpu = CPU(self.engine, quantum=cpu_quantum)
        #: The shared I/O bus, or ``None`` for fully independent disks.
        self.bus: Bus | None = (
            Bus(self.engine, bus_bandwidth) if bus_bandwidth else None
        )
        self.disks: dict[str, Disk] = {}
        self._seed = seed
        self._threads: list[SimThread] = []
        #: Listeners of every event kind, in registration order.
        self._listeners: list[Listener] = []
        #: Every listener, exit-only or not, in registration order: the
        #: ``exit`` audience.
        self._exit_listeners: list[Listener] = []
        #: Injected I/O failures still pending, per disk name.
        self._disk_faults: dict[str, int] = {}
        #: Disk name -> (disk, its ``blocked_on`` label), built by add_disk.
        self._disk_routes: dict[str, tuple[Disk, str]] = {}
        self._handlers: dict[type, Callable[[SimThread, Effect], None]] = {
            Delay: self._do_delay,
            UseCPU: self._do_cpu,
            DiskRead: self._do_disk_read,
            DiskWrite: self._do_disk_write,
            WaitCondition: self._do_wait,
            SignalCondition: self._do_signal,
            Yield: self._do_yield,
        }

    # -- machine configuration ---------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time, in seconds."""
        return self.engine.now

    def add_disk(
        self,
        name: str,
        params: DiskParams | None = None,
        shared_bus: bool = True,
    ) -> Disk:
        """Attach a disk; ``shared_bus=False`` gives it a private channel."""
        if name in self.disks:
            raise SimulationError(f"disk {name!r} already exists")
        disk = Disk(
            self.engine,
            name=name,
            params=params,
            bus=self.bus if shared_bus else None,
            seed=self._seed + len(self.disks) + 1,
        )
        self.disks[name] = disk
        self._disk_routes[name] = (disk, f"disk:{name}")
        return disk

    def register_handler(
        self, effect_type: type, handler: Callable[[SimThread, Effect], None]
    ) -> None:
        """Register a handler for a new effect type (extension point).

        The handler must eventually call :meth:`deliver` for the thread,
        or raise to reject the effect, which fails the thread.
        """
        if effect_type in self._handlers:
            raise SimulationError(f"handler for {effect_type.__name__} already set")
        self._handlers[effect_type] = handler

    def add_listener(self, listener: Listener, exit_only: bool = False) -> None:
        """Subscribe to thread lifecycle events ``(kind, thread, now)``.

        ``exit_only=True`` delivers only ``exit`` events.  Listeners of
        either sort hear an exit in the order they subscribed.
        """
        if not exit_only:
            self._listeners.append(listener)
        self._exit_listeners.append(listener)

    def remove_listener(self, listener: Listener) -> None:
        """Unsubscribe a listener; unknown listeners are ignored."""
        for audience in (self._listeners, self._exit_listeners):
            try:
                audience.remove(listener)
            except ValueError:
                pass

    # -- thread lifecycle ------------------------------------------------------------
    def spawn(
        self,
        name: str,
        body: ThreadBody,
        priority: CpuPriority = CpuPriority.NORMAL,
        process: str | None = None,
        start_after: float = 0.0,
    ) -> SimThread:
        """Create a thread and schedule its first step."""
        thread = SimThread(name, body, priority, process or name)
        thread._on_done = lambda: self.deliver(thread, None)
        self._threads.append(thread)
        if self._listeners:
            self._notify("spawn", thread)
        self._post_after(start_after, self._first_step, thread)
        return thread

    def threads(self) -> tuple[SimThread, ...]:
        """All threads ever spawned."""
        return tuple(self._threads)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run the simulation; returns the stop time.

        Thread failures surface here: if any thread died of an exception,
        its own or a rejected effect's, it is re-raised (wrapped) rather
        than silently swallowed.
        """
        stop = self.engine.run(until=until, max_events=max_events)
        for thread in self._threads:
            if thread.state is ThreadState.FAILED:
                raise SimulationError(
                    f"thread {thread.name!r} failed"
                ) from thread.error
        return stop

    # -- the debug interface (paper section 7.2) ----------------------------------------
    def suspend_thread(self, thread: SimThread) -> None:
        """Externally stop a thread at an arbitrary point (BeNice-style)."""
        if not thread.alive or thread.suspended:
            return
        thread.suspended = True
        if thread.blocked_on == "cpu":
            remaining = self.cpu.remove(thread)
            if remaining is not None:
                thread._pending_cpu = remaining
        if self._listeners:
            self._notify("suspend", thread)

    def resume_thread(self, thread: SimThread) -> None:
        """Undo :meth:`suspend_thread`; parked completions are delivered."""
        if not thread.alive or not thread.suspended:
            return
        thread.suspended = False
        if self._listeners:
            self._notify("unsuspend", thread)
        if thread._pending_cpu is not None:
            remaining = thread._pending_cpu
            thread._pending_cpu = None
            self.cpu.request(
                thread, remaining, int(thread.priority), thread._on_done
            )
        elif thread._parked is not None:
            value, exc = thread._parked
            thread._parked = None
            self._post_after(0.0, self._advance, thread, value, exc)

    def kill_thread(
        self, thread: SimThread, error: BaseException | None = None
    ) -> None:
        """Externally terminate a thread at an arbitrary point.

        The crash-injection counterpart of :meth:`suspend_thread`: works on
        running, blocked, and suspended threads alike (crashing a thread
        mid-suspension is the interesting robustness case — its supervisor
        must still learn of the exit and free its slot).  The generator is
        closed so ``finally`` blocks run; the thread ends ``DONE`` with
        ``error`` recorded, and listeners see a normal ``exit`` event.
        """
        if not thread.alive:
            return
        if thread.blocked_on == "cpu" and not thread.suspended:
            self.cpu.remove(thread)
        thread.suspended = False
        thread._parked = None
        thread._pending_cpu = None
        try:
            thread.body.close()
        except Exception:
            # A generator refusing to die is its own bug; the kill wins.
            pass
        thread.state = _DONE
        thread.error = error
        thread.blocked_on = None
        if self._exit_listeners:
            self._notify("exit", thread)

    def inject_disk_fault(self, disk: str, count: int = 1) -> None:
        """Fail the next ``count`` I/O requests submitted to ``disk``.

        Each faulted request delivers a :class:`DiskFault` into the issuing
        thread instead of performing the I/O.
        """
        if disk not in self.disks:
            raise SimulationError(f"no such disk {disk!r}")
        if count < 1:
            raise SimulationError(f"fault count must be >= 1, got {count}")
        self._disk_faults[disk] = self._disk_faults.get(disk, 0) + count

    # -- effect completion ----------------------------------------------------------------
    def deliver(self, thread: SimThread, value: Any) -> None:
        """Complete the thread's outstanding effect with ``value``.

        Extension handlers call this when their effect finishes.  Delivery
        to a suspended thread parks until resume; delivery to a dead thread
        is dropped.
        """
        state = thread.state
        if state is _DONE or state is _FAILED:
            return
        if thread.suspended:
            thread._parked = (value, None)
            return
        self._advance(thread, value)

    def deliver_error(self, thread: SimThread, exc: BaseException) -> None:
        """Complete the thread's outstanding effect by raising ``exc`` in it.

        The error-path twin of :meth:`deliver`: the exception is thrown at
        the thread's current yield point.  Same parking semantics —
        delivery to a suspended thread waits for resume, delivery to a
        dead thread is dropped.
        """
        state = thread.state
        if state is _DONE or state is _FAILED:
            return
        if thread.suspended:
            thread._parked = (None, exc)
            return
        self._advance(thread, None, exc)

    # -- internals ------------------------------------------------------------------------
    def _first_step(self, thread: SimThread) -> None:
        if thread.suspended:
            thread._parked = (None, None)
            return
        self._advance(thread, None)

    def _advance(
        self, thread: SimThread, value: Any, exc: BaseException | None = None
    ) -> None:
        state = thread.state
        if state is _DONE or state is _FAILED:
            return
        listeners = self._listeners
        thread.state = _RUNNING
        thread.blocked_on = None
        if listeners:
            self._notify("run", thread)
        try:
            if exc is not None:
                effect = thread.body.throw(exc)
            else:
                effect = thread.body.send(value)
        except StopIteration as stop:
            thread.state = _DONE
            thread.result = stop.value
            if self._exit_listeners:
                self._notify("exit", thread)
            return
        except Exception as error:  # Deliberate: capture app bugs, fail loudly in run().
            self._fail(thread, error)
            return
        handler = self._handlers.get(type(effect))
        if handler is None:
            self._fail(thread, SimulationError(f"unknown effect {effect!r}"))
            return
        thread.state = _BLOCKED
        try:
            handler(thread, effect)
        except Exception as error:  # A rejected effect fails its thread.
            self._fail(thread, error)
            return
        if listeners:
            self._notify("block", thread)

    def _fail(self, thread: SimThread, error: BaseException) -> None:
        """End ``thread`` as FAILED with ``error``; :meth:`run` re-raises it.

        The body is closed, so its ``finally`` blocks run now rather than
        whenever the generator is collected.
        """
        try:
            thread.body.close()
        except Exception:
            # A generator refusing to die is its own bug; the failure wins.
            pass
        thread.state = _FAILED
        thread.error = error
        thread.blocked_on = None
        if self._exit_listeners:
            self._notify("exit", thread)

    def _notify(self, kind: str, thread: SimThread) -> None:
        now = self.engine.now
        audience = self._exit_listeners if kind == "exit" else self._listeners
        for listener in audience:
            listener(kind, thread, now)

    # -- built-in effect handlers ---------------------------------------------------------
    def _do_delay(self, thread: SimThread, effect: Delay) -> None:
        if effect.seconds < 0:
            raise SimulationError(f"cannot sleep for {effect.seconds}")
        thread.blocked_on = "sleep"
        self._post_after(effect.seconds, self.deliver, thread, None)

    def _do_cpu(self, thread: SimThread, effect: UseCPU) -> None:
        thread.blocked_on = "cpu"
        self.cpu.request(
            thread, effect.seconds, int(thread.priority), thread._on_done
        )

    def _do_disk_read(self, thread: SimThread, effect: DiskRead) -> None:
        route = self._disk_routes.get(effect.disk)
        if route is None:
            raise SimulationError(f"no such disk {effect.disk!r}")
        disk, thread.blocked_on = route
        if self._disk_faults and self._take_disk_fault(thread, effect.disk, "read"):
            return
        disk.submit("read", effect.block, effect.nbytes, thread._on_done)

    def _do_disk_write(self, thread: SimThread, effect: DiskWrite) -> None:
        route = self._disk_routes.get(effect.disk)
        if route is None:
            raise SimulationError(f"no such disk {effect.disk!r}")
        disk, thread.blocked_on = route
        if self._disk_faults and self._take_disk_fault(thread, effect.disk, "write"):
            return
        disk.submit("write", effect.block, effect.nbytes, thread._on_done)

    def _take_disk_fault(self, thread: SimThread, disk: str, kind: str) -> bool:
        """Consume one injected fault on ``disk``, if any, failing this I/O."""
        pending_faults = self._disk_faults.get(disk, 0)
        if pending_faults <= 0:
            return False
        if pending_faults == 1:
            del self._disk_faults[disk]
        else:
            self._disk_faults[disk] = pending_faults - 1
        self._post_after(
            0.0,
            self.deliver_error,
            thread,
            DiskFault(f"injected {kind} failure on disk {disk!r}"),
        )
        return True

    def _do_wait(self, thread: SimThread, effect: WaitCondition) -> None:
        thread.blocked_on = f"cond:{effect.condition.name}"
        effect.condition.waiters.append(thread)

    def _do_signal(self, thread: SimThread, effect: SignalCondition) -> None:
        condition = effect.condition
        if condition.waiters:
            if effect.broadcast:
                woken: Iterable[SimThread] = tuple(condition.waiters)
                condition.waiters.clear()
            else:
                woken = (condition.waiters.pop(0),)
            for waiter in woken:
                self._post_after(0.0, self.deliver, waiter, effect.payload)
        # The signalling thread continues immediately (next event tick).
        thread.blocked_on = "signal"
        self._post_after(0.0, self.deliver, thread, None)

    def _do_yield(self, thread: SimThread, effect: Yield) -> None:
        thread.blocked_on = "yield"
        self._post_after(0.0, self.deliver, thread, None)

    def signal(self, condition: Condition, payload: Any = None, broadcast: bool = False) -> None:
        """Signal a condition from non-thread code (timers, externals)."""
        if not condition.waiters:
            return
        if broadcast:
            woken = tuple(condition.waiters)
            condition.waiters.clear()
        else:
            woken = (condition.waiters.pop(0),)
        for waiter in woken:
            self._post_after(0.0, self.deliver, waiter, payload)
