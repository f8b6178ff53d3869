"""Fires planned faults into a running simulation.

:class:`FaultInjector` owns the kernel-level fault kinds — clock skew,
thread stalls and crashes, disk failures — arming a
:class:`~repro.faults.plan.FaultPlan` onto the event engine and emitting a
:class:`~repro.obs.events.FaultInjected` event at each firing so traces
show the fault right next to the regulation stack's reaction.

:class:`SkewedTime` is the clock seam: a callable time source (for
:class:`~repro.simos.sim_manners.SimManners`'s ``time_source`` hook) that
adds a fault-controlled offset to honest engine time, modelling a stepped
or leaping OS clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.errors import FaultError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import events as obs_events
from repro.simos.engine import SimulationError
from repro.simos.kernel import Kernel, SimThread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["SkewedTime", "FaultInjector"]

#: Fault kinds this injector can dispatch directly.
_DISPATCHABLE = frozenset(
    {"clock_backstep", "clock_jump", "stall", "unstall", "crash", "disk_fail"}
)


class SkewedTime:
    """Honest time plus a fault-controlled offset.

    Models the clock the regulation library actually reads: normally it
    tracks true time, but an injected ``clock_backstep`` subtracts from
    the offset (the reading regresses) and a ``clock_jump`` adds to it
    (the reading leaps ahead).  Between faults both clocks advance at the
    same rate.
    """

    __slots__ = ("_base", "offset")

    def __init__(self, base: Callable[[], float]) -> None:
        self._base = base
        #: Current skew in seconds (readings are ``base() + offset``).
        self.offset = 0.0

    def __call__(self) -> float:
        """The skewed reading."""
        return self._base() + self.offset

    def apply(self, kind: str, param: float) -> None:
        """Apply one clock fault (``clock_backstep`` or ``clock_jump``)."""
        if kind == "clock_backstep":
            self.offset -= param
        elif kind == "clock_jump":
            self.offset += param
        else:
            raise FaultError(f"{kind!r} is not a clock fault")


class FaultInjector:
    """Arms a fault plan onto a kernel and dispatches the firings.

    Thread-targeting faults (``stall``/``unstall``/``crash``) resolve
    their targets through :meth:`register_thread`; clock faults require a
    :class:`SkewedTime` (the same instance handed to the simulation's
    regulation stack); ``disk_fail`` targets a kernel disk by name.
    """

    def __init__(
        self,
        kernel: Kernel,
        plan: FaultPlan | None = None,
        telemetry: "Telemetry | None" = None,
        skew: SkewedTime | None = None,
    ) -> None:
        self._kernel = kernel
        self._plan = plan if plan is not None else FaultPlan()
        self._telemetry = telemetry
        self._skew = skew
        self._threads: dict[str, SimThread] = {}
        #: Specs fired so far, in firing order.
        self.fired: list[FaultSpec] = []

    def register_thread(self, thread: SimThread) -> None:
        """Make ``thread`` targetable by its kernel name."""
        self._threads[thread.name] = thread

    def arm(self) -> int:
        """Schedule every dispatchable spec in the plan; return the count.

        Raises :class:`FaultError` if the plan contains a kind this
        injector cannot dispatch (those belong to the store/sink seams)
        or a thread target that was never registered.
        """
        armed = 0
        for spec in self._plan:
            if spec.kind not in _DISPATCHABLE:
                raise FaultError(
                    f"injector cannot dispatch {spec.kind!r}; handle it via "
                    "the store/sink fault seams"
                )
            if spec.kind in ("stall", "unstall", "crash") and (
                spec.target not in self._threads
            ):
                raise FaultError(f"unregistered fault target {spec.target!r}")
            self._kernel.engine.call_at(
                spec.at, self.inject, spec.kind, spec.target, spec.param
            )
            armed += 1
        return armed

    def inject(self, kind: str, target: str = "", param: float = 0.0) -> None:
        """Fire one fault right now (also the armed plan's entry point)."""
        if kind in ("clock_backstep", "clock_jump"):
            if self._skew is None:
                raise FaultError("clock faults require a SkewedTime instance")
            self._skew.apply(kind, param)
        elif kind in ("stall", "unstall", "crash"):
            thread = self._threads.get(target)
            if thread is None:
                raise FaultError(f"unregistered fault target {target!r}")
            if kind == "stall":
                self._kernel.suspend_thread(thread)
            elif kind == "unstall":
                self._kernel.resume_thread(thread)
            else:
                self._kernel.kill_thread(
                    thread, error=SimulationError("injected crash")
                )
        elif kind == "disk_fail":
            self._kernel.inject_disk_fault(target, max(int(param), 1))
        else:
            raise FaultError(f"injector cannot dispatch {kind!r}")
        spec = FaultSpec(at=self._kernel.now, kind=kind, target=target, param=param)
        self.fired.append(spec)
        tel = self._telemetry
        if tel is not None:
            now = self._skew() if self._skew is not None else self._kernel.now
            tel.tick(now)
            tel.emit(
                obs_events.FaultInjected(
                    t=now, src="faults", fault=kind, target=target, param=param
                )
            )
            tel.metrics.counters.faults_injected.inc()
            # Push everything buffered so far — including this fault — to
            # the sinks now.  An attached flight recorder auto-dumps on the
            # fault event, so the dump holds the complete ordered history
            # up to the moment of injection even if the run crashes before
            # the next scheduled batch flush.
            tel.flush()
