"""The effect vocabulary simulated threads yield to the kernel.

Simulated application code is written as Python generators.  Instead of
calling blocking OS services, a thread *yields* an effect object describing
what it wants; the kernel performs it and resumes the generator with the
result once it completes.  This mirrors how real threads block in system
calls, and gives the simulator complete control over timing::

    def copy_file(kernel, fs, src, dst):
        data_blocks = fs.file_blocks(src)
        for block in data_blocks:
            yield DiskRead(fs.volume, block, fs.block_size)
            yield DiskWrite(fs.volume, block, fs.block_size)
            yield UseCPU(0.0001)  # checksum

Effects are plain slotted dataclasses; the kernel dispatches on their type.
New effects (like the MS Manners testpoint in
:mod:`repro.simos.sim_manners`) can be registered without touching the
kernel.

Effects are records, built once per request and read once by the kernel,
so they are not frozen: a frozen dataclass's ``__init__`` writes each
field through ``object.__setattr__``, which nearly triples the cost of
building one, and the scenarios build thousands per trial.  Treat an
effect as immutable all the same.  They are not tuples either: a tuple
``DiskRead`` would compare equal to a ``DiskWrite`` with the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "Effect",
    "Delay",
    "UseCPU",
    "DiskRead",
    "DiskWrite",
    "WaitCondition",
    "SignalCondition",
    "Condition",
    "Yield",
]


class Effect:
    """Base class for everything a simulated thread can yield."""

    __slots__ = ()


@dataclass(slots=True)
class Delay(Effect):
    """Sleep for ``seconds`` of simulated time (no resource use)."""

    seconds: float


@dataclass(slots=True)
class UseCPU(Effect):
    """Consume ``seconds`` of CPU *service* time.

    Actual elapsed time depends on contention and the thread's CPU
    priority: the simulated CPU is strict-priority with round-robin
    time-slicing within a level, so a low-priority thread's burst stretches
    whenever higher-priority threads are runnable.
    """

    seconds: float


@dataclass(slots=True)
class DiskRead(Effect):
    """Read ``nbytes`` starting at logical ``block`` of disk ``disk``.

    ``disk`` names a disk registered with the kernel.  Completion time
    includes queueing (FCFS), seek, rotational latency, and transfer over
    the (possibly shared) bus.
    """

    disk: str
    block: int
    nbytes: int


@dataclass(slots=True)
class DiskWrite(Effect):
    """Write ``nbytes`` starting at logical ``block`` of disk ``disk``."""

    disk: str
    block: int
    nbytes: int


class Condition:
    """A waitable pulse, like a condition variable without the lock.

    Threads yield :class:`WaitCondition` to block on it and
    :class:`SignalCondition` (or call :meth:`Condition` helpers from
    non-thread code via the kernel) to wake waiters.  Each signal carries an
    optional payload delivered as the result of the wait.
    """

    __slots__ = ("name", "waiters")

    def __init__(self, name: str = "condition") -> None:
        self.name = name
        #: Threads currently blocked on this condition (kernel-managed).
        self.waiters: list[Any] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Condition({self.name!r}, waiters={len(self.waiters)})"


@dataclass(slots=True)
class WaitCondition(Effect):
    """Block until the condition is signalled; resumes with the payload."""

    condition: Condition


@dataclass(slots=True)
class SignalCondition(Effect):
    """Wake waiters on a condition and continue immediately.

    ``broadcast`` wakes every current waiter; otherwise only the longest
    waiting one.  ``payload`` is delivered to each woken thread.
    """

    condition: Condition
    payload: Any = None
    broadcast: bool = False


@dataclass(slots=True)
class Yield(Effect):
    """Reschedule immediately: let same-time events interleave.

    Useful in tight loops that perform no simulated work but must not
    monopolize the event queue.
    """
