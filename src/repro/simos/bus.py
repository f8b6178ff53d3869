"""Shared I/O bus (SCSI controller) serialization.

The paper's test machine hangs two Seagate disks and a CD-ROM off one
Adaptec 2940UW controller.  Figure 9 attributes part of the "incomplete
isolation between the two drives" to this shared controller: even threads
working against different disks perturb each other because their transfers
serialize on the bus.

:class:`Bus` models that coupling: a transfer occupies the bus for
``nbytes / bandwidth`` seconds, FCFS.  Seeks and rotational latency happen
inside each disk concurrently; only the data transfer phase is serialized.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.simos.engine import Engine, SimulationError

__all__ = ["BusStats", "Bus"]

_INF = math.inf


@dataclass(slots=True)
class BusStats:
    """Aggregate bus accounting."""

    transfers: int = 0
    busy_time: float = 0.0
    queued_peak: int = 0


class Bus:
    """A FCFS-shared transfer channel.

    An idle bus starts a transfer at once; a finished transfer pumps the
    queue only when another is waiting.  Either way each transfer is one
    event, posted for ``duration`` seconds after it starts.
    """

    __slots__ = ("_engine", "_post_after", "bandwidth", "name", "_busy", "_queue", "stats")

    def __init__(self, engine: Engine, bandwidth: float, name: str = "scsi0") -> None:
        if not bandwidth > 0:
            # Written so that NaN fails too; an infinite bus is unlimited.
            raise SimulationError(f"bus bandwidth must be positive, got {bandwidth}")
        self._engine = engine
        self._post_after = engine.post_after
        #: Bytes per second the bus can move.
        self.bandwidth = float(bandwidth)
        self.name = name
        self._busy = False
        self._queue: deque[tuple[float, Callable[..., None], tuple]] = deque()
        self.stats = BusStats()

    @property
    def busy(self) -> bool:
        """Whether a transfer is in flight."""
        return self._busy

    @property
    def queue_depth(self) -> int:
        """Transfers waiting behind the current one."""
        return len(self._queue)

    def transfer(self, duration: float, on_done: Callable[..., None], *args) -> None:
        """Occupy the bus for ``duration`` seconds; ``on_done(*args)`` at completion.

        The caller computes the duration (a disk uses its media rate capped
        by the bus bandwidth), because a transfer's speed is limited by the
        slower of the device and the channel.  Extra positional ``args`` are
        forwarded to ``on_done`` so callers need not allocate a closure.
        """
        if not (0.0 <= duration < _INF):
            raise SimulationError(
                f"transfer duration must be finite and non-negative, got {duration}"
            )
        queue = self._queue
        if self._busy or queue:
            queue.append((duration, on_done, args))
            if len(queue) > self.stats.queued_peak:
                self.stats.queued_peak = len(queue)
            if not self._busy:
                self._pump()
            return
        # Idle with nothing waiting: the transfer was the whole queue for
        # an instant, and starts now.
        stats = self.stats
        if stats.queued_peak < 1:
            stats.queued_peak = 1
        self._busy = True
        stats.transfers += 1
        stats.busy_time += duration
        self._post_after(duration, self._finish, on_done, args)

    # -- internals ------------------------------------------------------------
    def _pump(self) -> None:
        """Start the oldest waiting transfer; the bus is idle, the queue is not."""
        duration, on_done, args = self._queue.popleft()
        self._busy = True
        stats = self.stats
        stats.transfers += 1
        stats.busy_time += duration
        self._post_after(duration, self._finish, on_done, args)

    def _finish(self, on_done: Callable[..., None], args: tuple) -> None:
        self._busy = False
        on_done(*args)
        if self._queue and not self._busy:
            self._pump()
