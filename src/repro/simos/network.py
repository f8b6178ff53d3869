"""Shared network link: the resource *external* to the machine (section 3).

"Since MS Manners is completely resource-independent, it does not
discriminate between various classes of resources, such as those internal
and external to a machine.  For example, a web crawler's progress rate
will degrade when the network is loaded, triggering MS Manners to suspend
the process, which may not be as desired."

:class:`NetworkLink` models an uplink with fair (processor-sharing
approximated as FCFS-of-small-frames) bandwidth and a base round-trip
latency, plus an externally scriptable *congestion* factor standing in for
load beyond the machine's control.  The backup application in
:mod:`repro.apps.backup` sends over such a link, and a regression test
demonstrates the section-3 limitation faithfully: remote congestion slows
the sender's progress and MS Manners suspends it, even though the local
machine is idle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.simos.effects import Effect
from repro.simos.engine import Engine, SimulationError
from repro.simos.kernel import Kernel, SimThread

__all__ = ["NetSend", "NetworkStats", "NetworkLink"]


@dataclass(slots=True)
class NetSend(Effect):
    """Transmit ``nbytes`` over the named network link."""

    link: str
    nbytes: int


@dataclass(slots=True)
class NetworkStats:
    """Aggregate link accounting."""

    transfers: int = 0
    bytes_sent: int = 0
    busy_time: float = 0.0


class NetworkLink:
    """A FCFS uplink with scriptable external congestion.

    The effective bandwidth at any instant is
    ``bandwidth / congestion_factor``; the factor defaults to 1.0 and can
    be changed at any time (e.g. from a scheduled event) to model remote
    load the sender cannot observe directly.
    """

    __slots__ = (
        "_engine",
        "name",
        "bandwidth",
        "latency",
        "frame_bytes",
        "congestion_factor",
        "_busy",
        "_queue",
        "stats",
    )

    def __init__(
        self,
        engine: Engine,
        name: str = "uplink",
        bandwidth: float = 1_250_000.0,  # 10 Mb/s in bytes/s
        latency: float = 0.005,
        frame_bytes: int = 65536,
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise SimulationError(f"latency must be non-negative, got {latency}")
        if frame_bytes <= 0:
            raise SimulationError(f"frame_bytes must be positive, got {frame_bytes}")
        self._engine = engine
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.frame_bytes = frame_bytes
        self.congestion_factor = 1.0
        self._busy = False
        self._queue: deque[tuple[int, Callable[[], None]]] = deque()
        self.stats = NetworkStats()

    def attach(self, kernel: Kernel) -> None:
        """Register the :class:`NetSend` effect handler with a kernel.

        The first link attached claims the effect type; additional links
        share the handler and dispatch by name.
        """
        registry = getattr(kernel, "_network_links", None)
        if registry is None:
            registry = {}
            kernel._network_links = registry  # type: ignore[attr-defined]

            def handler(thread: SimThread, effect: Effect) -> None:
                assert isinstance(effect, NetSend)
                link = registry.get(effect.link)
                if link is None:
                    raise SimulationError(f"no such network link {effect.link!r}")
                thread.blocked_on = f"net:{effect.link}"
                link.send(effect.nbytes, thread._on_done)

            kernel.register_handler(NetSend, handler)
        if self.name in registry:
            raise SimulationError(f"network link {self.name!r} already attached")
        registry[self.name] = self

    def set_congestion(self, factor: float) -> None:
        """Set the external-congestion slowdown factor (>= 1)."""
        if factor < 1.0:
            raise SimulationError(f"congestion factor must be >= 1, got {factor}")
        self.congestion_factor = factor

    # -- transfers -------------------------------------------------------------
    def send(self, nbytes: int, on_done: Callable[[], None]) -> None:
        """Queue a transfer; ``on_done`` fires when the last byte is out."""
        if nbytes <= 0:
            raise SimulationError(f"transfer size must be positive, got {nbytes}")
        self._queue.append((nbytes, on_done))
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        nbytes, on_done = self._queue.popleft()
        self._busy = True
        # Frame-by-frame so congestion changes mid-transfer take effect.
        self._send_frames(nbytes, on_done, first=True)

    def _send_frames(self, remaining: int, on_done: Callable[[], None], first: bool) -> None:
        if remaining <= 0:
            self.stats.transfers += 1
            self._busy = False
            on_done()
            self._pump()
            return
        frame = min(self.frame_bytes, remaining)
        rate = self.bandwidth / self.congestion_factor
        duration = frame / rate + (self.latency if first else 0.0)
        self.stats.bytes_sent += frame
        self.stats.busy_time += duration
        self._engine.post_after(
            duration, self._send_frames, remaining - frame, on_done, False
        )
