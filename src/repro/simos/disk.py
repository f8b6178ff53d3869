"""Simulated disk: seek + rotational latency + transfer, FCFS queue.

The parameters default to a model of the paper's Seagate ST34371W
(Barracuda 4LP, 4.3 GB, 7200 RPM, ultra-wide SCSI): average seek around
9 ms, half-rotation latency ~4.2 ms, sustained media rate ~10 MB/s.

Two properties matter for reproducing the paper:

* **Symmetric contention** — the queue is FCFS, so two request streams of
  similar shape each see roughly doubled latency; this is the fairness
  assumption of section 3.  (A scheduler favouring small transfers would
  break the symmetry — that asymmetry is discussed, not used, in the
  paper, and can be enabled here with ``favor_small=True`` for the
  corresponding ablation test.)
* **Locality sensitivity** — sequential accesses skip seek and rotation
  (track-buffer behaviour), so a defragmenter genuinely improves layout
  performance, and interleaving two sequential streams costs *more* than
  the sum of their service times (the paper's Figure 6 observes a 50%
  inefficiency from contention).

Seek time follows the classic ``a + b * sqrt(distance)`` curve
[Worthington et al., SIGMETRICS'95 — the paper's citation 29].
"""

from __future__ import annotations

import math
import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.simos.bus import Bus
from repro.simos.engine import Engine, SimulationError

__all__ = ["DiskParams", "DiskStats", "DiskRequest", "Disk"]

_INF = math.inf


@dataclass(frozen=True, slots=True)
class DiskParams:
    """Geometry and timing parameters.

    Defaults approximate a Seagate ST34371W: 4.3 GB across ~5,200
    cylinders at 7,200 RPM.
    """

    #: Number of cylinders across the logical block range.
    cylinders: int = 5200
    #: Total capacity in bytes.
    capacity: int = 4_300_000_000
    #: Fixed per-seek settle overhead, in seconds.
    seek_base: float = 0.0015
    #: Coefficient of the sqrt(distance) seek term; the default yields an
    #: average random seek of ~8.8 ms across the full stroke.
    seek_factor: float = 0.000175
    #: Rotation period, in seconds (7,200 RPM = 8.33 ms).
    rotation_period: float = 1.0 / 120.0
    #: Sustained media transfer rate, bytes per second.
    transfer_rate: float = 10_000_000.0
    #: Fixed controller/command overhead per request, in seconds.
    overhead: float = 0.0003
    #: Logical block size, in bytes.
    block_size: int = 4096

    def __post_init__(self) -> None:
        # Checked once here, so a bad drive fails at construction rather
        # than mid-run, with its disk busy and its thread blocked.
        for name in ("cylinders", "capacity", "block_size"):
            value = getattr(self, name)
            if not (value.__class__ is int and value > 0):
                raise SimulationError(f"DiskParams.{name} must be a positive int, got {value!r}")
        for name in ("rotation_period", "transfer_rate"):
            value = getattr(self, name)
            if not 0.0 < value < _INF:
                raise SimulationError(
                    f"DiskParams.{name} must be finite and positive, got {value!r}"
                )
        for name in ("seek_base", "seek_factor", "overhead"):
            value = getattr(self, name)
            if not 0.0 <= value < _INF:
                raise SimulationError(
                    f"DiskParams.{name} must be finite and non-negative, got {value!r}"
                )

    @property
    def blocks(self) -> int:
        """Number of logical blocks on the disk."""
        return self.capacity // self.block_size

    @property
    def blocks_per_cylinder(self) -> int:
        """Logical blocks per cylinder (uniform zoning approximation)."""
        return max(self.blocks // self.cylinders, 1)


#: A slow sequential device standing in for the Plextor PX-12TS CD-ROM
#: (12x ≈ 1.8 MB/s, long seeks, 1/0.5 s spin "rotation").
CDROM_PARAMS = DiskParams(
    cylinders=2000,
    capacity=650_000_000,
    seek_base=0.08,
    seek_factor=0.0015,
    rotation_period=1.0 / 8.0,
    transfer_rate=1_800_000.0,
    overhead=0.001,
    block_size=2048,
)


@dataclass(slots=True)
class DiskStats:
    """Aggregate per-disk accounting."""

    requests: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0
    queue_wait_time: float = 0.0
    max_queue_wait: float = 0.0
    queued_peak: int = 0
    sequential_hits: int = 0


class DiskRequest:
    """One queued I/O operation."""

    __slots__ = ("kind", "block", "nbytes", "on_done", "enqueued_at")

    def __init__(
        self,
        kind: str,
        block: int,
        nbytes: int,
        on_done: Callable[[], None],
        enqueued_at: float,
    ) -> None:
        self.kind = kind
        self.block = block
        self.nbytes = nbytes
        self.on_done = on_done
        self.enqueued_at = enqueued_at


class Disk:
    """A single disk drive with a FCFS request queue.

    The request path is the hot loop of every paper scenario, so the
    geometry and timing constants are read once from the frozen
    :class:`DiskParams`, an idle drive serves a new request without
    building a :class:`DiskRequest` (its positioning and transfer events
    carry ``(kind, block, nbytes, on_done)`` as arguments), and a
    completion pumps the queue only when work is waiting.  None of that
    changes what is simulated: each request still posts one positioning
    event, then one transfer event, and draws the same rotational-latency
    sample as a queued request would.
    """

    __slots__ = (
        "_engine",
        "_post_after",
        "name",
        "params",
        "_bus",
        "_rng",
        "_scheduler",
        "_direction",
        "_queue",
        "_busy",
        "_head_cylinder",
        "_last_end_block",
        "_service_started",
        "stats",
        "_blocks",
        "_blocks_per_cylinder",
        "_last_cylinder",
        "_block_size",
        "_overhead",
        "_seek_base",
        "_seek_factor",
        "_rotation_period",
        "_transfer_rate",
    )

    #: Supported queue disciplines.  FCFS is the default because it gives
    #: the roughly *symmetric* contention the paper's core assumption
    #: requires; SSTF and the elevator raise throughput at the cost of
    #: positional unfairness, and "smallest" is the section-3 asymmetric
    #: strawman (small transfers always jump the queue).
    SCHEDULERS = ("fcfs", "sstf", "elevator", "smallest")

    def __init__(
        self,
        engine: Engine,
        name: str = "disk0",
        params: DiskParams | None = None,
        bus: Bus | None = None,
        seed: int = 0,
        favor_small: bool = False,
        scheduler: str = "fcfs",
    ) -> None:
        self._engine = engine
        self._post_after = engine.post_after
        self.name = name
        self.params = params = params or DiskParams()
        self._bus = bus
        # zlib.crc32 rather than hash(): str hashing is randomized per
        # process, which would make "deterministic" simulations differ
        # between runs of the same seed.
        self._rng = random.Random((seed << 16) ^ (zlib.crc32(name.encode()) & 0xFFFF))
        if favor_small:
            scheduler = "smallest"
        if scheduler not in self.SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; choose from {self.SCHEDULERS}"
            )
        self._scheduler = scheduler
        #: Elevator sweep direction: +1 toward higher cylinders.
        self._direction = 1
        self._queue: deque[DiskRequest] = deque()
        self._busy = False
        self._head_cylinder = 0
        #: First block after the last transfer; -1 before any (no block
        #: matches it, so the first request is never sequential).
        self._last_end_block = -1
        self._service_started = 0.0
        self.stats = DiskStats()
        # Frozen params: derive the geometry once, not per request.
        self._blocks = params.blocks
        self._blocks_per_cylinder = params.blocks_per_cylinder
        self._last_cylinder = params.cylinders - 1
        self._block_size = params.block_size
        self._overhead = params.overhead
        self._seek_base = params.seek_base
        self._seek_factor = params.seek_factor
        self._rotation_period = params.rotation_period
        self._transfer_rate = params.transfer_rate

    # -- introspection ----------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether a request is being served."""
        return self._busy

    @property
    def queue_depth(self) -> int:
        """Requests waiting (not counting the one in service)."""
        return len(self._queue)

    def cylinder_of(self, block: int) -> int:
        """Map a logical block to its cylinder."""
        cylinder = block // self._blocks_per_cylinder
        return cylinder if cylinder < self._last_cylinder else self._last_cylinder

    # -- requests -------------------------------------------------------------------
    def submit(
        self, kind: str, block: int, nbytes: int, on_done: Callable[[], None]
    ) -> None:
        """Queue a request; ``on_done`` fires via the event queue at completion.

        A request submitted while others wait (including one submitted
        from a completion callback, before the drive has picked its next
        request) queues behind them.
        """
        if kind not in ("read", "write"):
            raise SimulationError(f"unknown disk request kind {kind!r}")
        # Exact int checks: a float or bool would otherwise be served, and
        # a float would leak into the head position or the byte counts.
        if not (nbytes.__class__ is int and 0 < nbytes):
            raise SimulationError(
                f"request size must be a positive int, got {nbytes!r}"
            )
        if not (block.__class__ is int and 0 <= block < self._blocks):
            raise SimulationError(
                f"block {block!r} is not an int in range for {self.name} "
                f"({self._blocks} blocks)"
            )
        queue = self._queue
        stats = self.stats
        if self._busy or queue:
            queue.append(DiskRequest(kind, block, nbytes, on_done, self._engine.now))
            if len(queue) > stats.queued_peak:
                stats.queued_peak = len(queue)
            if not self._busy:
                self._pump()
            return
        # Idle with nothing waiting: serve at once, with no request object.
        # The request was the whole queue for an instant and waited zero
        # seconds in it.
        if stats.queued_peak < 1:
            stats.queued_peak = 1
        self._busy = True
        self._service_started = self._engine.now
        stats.requests += 1
        if block == self._last_end_block:
            # Track-buffer / zero-latency continuation.
            stats.sequential_hits += 1
            delay = self._overhead
        else:
            delay = self._seek(block)
        self._post_after(delay, self._start_transfer, kind, block, nbytes, on_done)

    # -- internals ---------------------------------------------------------------------
    def _pump(self) -> None:
        """Serve the next waiting request; the drive is idle, the queue is not."""
        request = self._select()
        now = self._engine.now
        wait = now - request.enqueued_at
        stats = self.stats
        stats.queue_wait_time += wait
        if wait > stats.max_queue_wait:
            stats.max_queue_wait = wait
        self._busy = True
        self._service_started = now
        stats.requests += 1
        block = request.block
        if block == self._last_end_block:
            stats.sequential_hits += 1
            delay = self._overhead
        else:
            delay = self._seek(block)
        self._post_after(
            delay, self._start_transfer,
            request.kind, block, request.nbytes, request.on_done,
        )

    def _select(self) -> DiskRequest:
        """Pick the next request per the configured queue discipline."""
        if self._scheduler == "fcfs" or len(self._queue) == 1:
            return self._queue.popleft()
        if self._scheduler == "smallest":
            request = min(self._queue, key=lambda r: r.nbytes)
        elif self._scheduler == "sstf":
            request = min(
                self._queue,
                key=lambda r: abs(self.cylinder_of(r.block) - self._head_cylinder),
            )
        else:  # elevator: continue the sweep; reverse when it empties
            ahead = [
                r
                for r in self._queue
                if (self.cylinder_of(r.block) - self._head_cylinder) * self._direction >= 0
            ]
            if not ahead:
                self._direction = -self._direction
                ahead = list(self._queue)
            request = min(
                ahead,
                key=lambda r: abs(self.cylinder_of(r.block) - self._head_cylinder),
            )
        self._queue.remove(request)
        return request

    def _seek(self, block: int) -> float:
        """Positioning time of a non-sequential request at ``block``.

        Overhead, the seek from the head's cylinder, and one rotational
        latency drawn from the drive's rng; the head moves to the target.
        """
        target = block // self._blocks_per_cylinder
        if target > self._last_cylinder:
            target = self._last_cylinder
        distance = abs(target - self._head_cylinder)
        self._head_cylinder = target
        rotation = self._rng.random() * self._rotation_period
        if distance > 0:
            seek = self._seek_base + self._seek_factor * distance**0.5
            return self._overhead + seek + rotation
        return self._overhead + rotation

    def _start_transfer(
        self, kind: str, block: int, nbytes: int, on_done: Callable[[], None]
    ) -> None:
        bus = self._bus
        if bus is not None:
            rate = self._transfer_rate
            if bus.bandwidth < rate:
                rate = bus.bandwidth
            bus.transfer(nbytes / rate, self._finish, kind, block, nbytes, on_done)
        else:
            self._post_after(
                nbytes / self._transfer_rate, self._finish, kind, block, nbytes, on_done
            )

    def _finish(
        self, kind: str, block: int, nbytes: int, on_done: Callable[[], None]
    ) -> None:
        # nbytes > 0 (checked on submit), so the span is at least one block.
        end = block - (-nbytes // self._block_size)
        self._last_end_block = end
        if end >= self._blocks:
            end = self._blocks - 1
        head = end // self._blocks_per_cylinder
        self._head_cylinder = head if head < self._last_cylinder else self._last_cylinder
        stats = self.stats
        if kind == "read":
            stats.bytes_read += nbytes
        else:
            stats.bytes_written += nbytes
        stats.busy_time += self._engine.now - self._service_started
        self._busy = False
        on_done()
        if self._queue and not self._busy:
            self._pump()
