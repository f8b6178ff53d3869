"""Physical-memory model exhibiting the paper's section-3 asymmetry.

"One noteworthy example of resource asymmetry is physical memory.  If the
combined memory requirement of two processes exceeds the available
physical memory, operating systems tend to drastically favor one process
over another, in order to avoid page thrashing.  This is reasonable
behavior, but it invalidates our key assumption for this important
resource."

:class:`MemoryManager` models exactly that policy: each process declares a
working set; while the working sets fit in physical memory everyone hits;
under oversubscription the *favored* processes (first-registered by
default, like a long-resident service protected by a thrash-avoidance
policy) keep their full residency and the others eat page faults.

Simulated threads yield :class:`TouchMemory` effects; a fault costs a
disk-like delay.  The regression test built on this module demonstrates
the paper's limitation honestly: a favored low-importance process can
thrash a high-importance process without its own progress rate dropping,
so progress-based regulation never engages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.simos.effects import Effect
from repro.simos.engine import Engine, SimulationError
from repro.simos.kernel import Kernel, SimThread

__all__ = ["TouchMemory", "MemoryManager"]


@dataclass(slots=True)
class TouchMemory(Effect):
    """Touch ``pages`` pages of the calling thread's process working set."""

    pages: int = 1


class MemoryManager:
    """Page frames shared by declared working sets, with favoritism.

    Register with the kernel via :meth:`attach`; afterwards any thread may
    yield :class:`TouchMemory`.
    """

    __slots__ = (
        "_engine",
        "frames",
        "fault_service",
        "_rng",
        "_working_sets",
        "faults",
        "touches",
    )

    def __init__(
        self,
        engine: Engine,
        frames: int,
        fault_service: float = 0.008,
        seed: int = 0,
    ) -> None:
        if frames <= 0:
            raise SimulationError(f"frames must be positive, got {frames}")
        if fault_service <= 0:
            raise SimulationError(f"fault_service must be positive, got {fault_service}")
        self._engine = engine
        self.frames = frames
        self.fault_service = fault_service
        self._rng = random.Random(seed)
        #: process -> declared working-set pages, in registration order.
        self._working_sets: dict[str, int] = {}
        self.faults: dict[str, int] = {}
        self.touches: dict[str, int] = {}

    # -- configuration --------------------------------------------------------
    def declare(self, process: str, working_set: int) -> None:
        """Declare (or update) a process's working-set size in pages."""
        if working_set <= 0:
            raise SimulationError(f"working set must be positive, got {working_set}")
        self._working_sets[process] = working_set
        self.faults.setdefault(process, 0)
        self.touches.setdefault(process, 0)

    def attach(self, kernel: Kernel) -> None:
        """Register the TouchMemory effect handler with a kernel."""
        kernel.register_handler(TouchMemory, self._make_handler(kernel))

    # -- policy -----------------------------------------------------------------
    def residency(self, process: str) -> float:
        """Fraction of the process's working set that is resident [0, 1].

        Favoritism: earlier-registered processes are served first from the
        frame pool (the OS protects the long-resident process to avoid
        global thrashing); later ones share the remainder.
        """
        if process not in self._working_sets:
            raise SimulationError(f"process {process!r} declared no working set")
        remaining = self.frames
        for name, pages in self._working_sets.items():
            granted = min(pages, max(remaining, 0))
            if name == process:
                return granted / pages
            remaining -= granted
        raise AssertionError("unreachable")  # pragma: no cover

    def fault_probability(self, process: str) -> float:
        """Chance that one touch misses residency."""
        return 1.0 - self.residency(process)

    @property
    def oversubscribed(self) -> bool:
        """Whether declared working sets exceed physical memory."""
        return sum(self._working_sets.values()) > self.frames

    # -- effect handling ------------------------------------------------------------
    def _make_handler(self, kernel: Kernel):
        def handler(thread: SimThread, effect: Effect) -> None:
            assert isinstance(effect, TouchMemory)
            process = thread.process
            p_fault = self.fault_probability(process)
            delay = 0.0
            self.touches[process] = self.touches.get(process, 0) + effect.pages
            for _ in range(effect.pages):
                if self._rng.random() < p_fault:
                    self.faults[process] = self.faults.get(process, 0) + 1
                    delay += self.fault_service
            thread.blocked_on = "memory"
            kernel.engine.post_after(delay, kernel.deliver, thread, None)

        return handler
