"""Machine-wide orchestration of regulated processes (paper section 7.1).

"The first supervisor thread that spins up in any process spawns a
superintendent process. ... Before releasing a thread, a supervisor waits
for permission from the superintendent, which shares execution time among
the processes."

:class:`Superintendent` arbitrates an execution token among registered
processes using the same priority + decay-usage policy as the per-process
supervisor (see :mod:`repro.core.scheduling`).  Combined with the
supervisors, it realizes machine-wide time-multiplex isolation: at most one
low-importance *thread*, across all regulated processes, executes at a time
(section 4.5).

Like the rest of :mod:`repro.core`, the superintendent is pure and
time-fed.  In the paper the superintendent is a separate OS process talking
to supervisors over shared memory; here it is an object that supervisors
share in-process (the simulator hosts all "processes" in one interpreter),
and :mod:`repro.realtime` offers a file-lock-backed variant for regulating
genuinely separate OS processes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable

from repro.core.scheduling import MultiplexArbiter
from repro.obs import lazy as obs_events
from repro.obs.lazy import scope_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["Superintendent"]


class Superintendent:
    """Shares the machine-wide execution token among regulated processes."""

    __slots__ = ("_arbiter", "_telemetry", "_labels")

    def __init__(
        self, usage_decay: float = 0.9, telemetry: "Telemetry | None" = None
    ) -> None:
        self._arbiter = MultiplexArbiter(usage_decay=usage_decay)
        self._telemetry = telemetry
        #: Registered process -> its event label, built once at admission.
        self._labels: dict[Hashable, str] = {}

    # -- membership --------------------------------------------------------------
    def register_process(self, pid: Hashable, priority: int = 0) -> None:
        """Admit a process (called by its supervisor on first use)."""
        self._arbiter.add(pid, priority=priority)
        self._labels[pid] = scope_label(pid)

    def unregister_process(self, pid: Hashable) -> None:
        """Withdraw a process; frees the token if it was held."""
        self._arbiter.remove(pid)
        del self._labels[pid]

    def __contains__(self, pid: Hashable) -> bool:
        return pid in self._arbiter

    # -- token protocol -------------------------------------------------------------
    @property
    def holder(self) -> Hashable | None:
        """The process currently holding the execution token."""
        return self._arbiter.owner

    def acquire(self, pid: Hashable, now: float) -> bool:
        """Try to take the token for ``pid``; return whether it now holds it.

        A process asking for the token is eligible immediately; fairness
        across repeated contention comes from decay usage.
        """
        self._arbiter.set_eligible_at(pid, min(self._arbiter.eligible_at(pid), now))
        before = self._arbiter.owner
        holds = self._arbiter.acquire(now) == pid
        tel = self._telemetry
        if tel is not None and holds and before != pid:
            tel.tick(now)
            tel.metrics.counters.token_handoffs.inc()
            if tel.emitting:
                tel.emit(
                    obs_events.TokenHandoff(
                        t=now, src=tel.label, process=self._labels[pid], action="acquired"
                    )
                )
        return holds

    def release(self, pid: Hashable, now: float, until: float | None = None) -> None:
        """Give up the token, optionally declaring when ``pid`` next wants it.

        ``until`` lets a supervisor whose threads are all suspended tell the
        superintendent when the process will want the token again, so
        passive arbitration can re-seat it then.  Without a hint the
        process is out of contention entirely until it next calls
        :meth:`acquire` — a released process must never win a token it is
        not asking for.
        """
        was_holder = self._arbiter.owner == pid
        self._arbiter.set_eligible_at(pid, until if until is not None else math.inf)
        self._arbiter.release(pid)
        tel = self._telemetry
        if tel is not None and was_holder:
            tel.tick(now)
            if tel.emitting:
                tel.emit(
                    obs_events.TokenHandoff(
                        t=now, src=tel.label, process=self._labels[pid], action="released"
                    )
                )

    def charge(self, pid: Hashable, amount: float) -> None:
        """Accrue execution usage against a process (decay-usage sharing)."""
        self._arbiter.charge(pid, amount)

    def set_priority(self, pid: Hashable, priority: int) -> None:
        """Change a process's arbitration priority."""
        self._arbiter.set_priority(pid, priority)

    def next_eligible_time(self, now: float) -> float | None:
        """Earliest future time a waiting process becomes eligible."""
        when = self._arbiter.next_eligible_time(now)
        if when is None or math.isinf(when):
            return None
        return when
