"""The disk and bus request paths against the straightforward reference.

``ReferenceDisk`` and ``ReferenceBus`` are the plain implementations the
fast path replaced: every request goes through the queue, every completion
pumps it, and the geometry is read through the ``DiskParams`` properties on
each use.  The same request streams, driven through both, must give the
same completions at the same engine times in the same order, the same
number of events, and the same statistics, field by field.
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from collections import deque
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simos.bus import Bus, BusStats
from repro.simos.disk import (
    CDROM_PARAMS,
    Disk,
    DiskParams,
    DiskRequest,
    DiskStats,
)
from repro.simos.engine import Engine, SimulationError


class ReferenceBus:
    """FCFS bus: queue every transfer, pump after every completion."""

    def __init__(self, engine, bandwidth: float, name: str = "scsi0") -> None:
        self._engine = engine
        self.bandwidth = float(bandwidth)
        self.name = name
        self._busy = False
        self._queue: deque = deque()
        self.stats = BusStats()

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def transfer(self, duration: float, on_done: Callable[..., None], *args) -> None:
        if duration < 0:
            raise SimulationError(f"transfer duration must be non-negative, got {duration}")
        self._queue.append((duration, on_done, args))
        self.stats.queued_peak = max(self.stats.queued_peak, len(self._queue))
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        duration, on_done, args = self._queue.popleft()
        self._busy = True
        self.stats.transfers += 1
        self.stats.busy_time += duration
        self._engine.post_after(duration, self._finish, on_done, args)

    def _finish(self, on_done: Callable[..., None], args: tuple) -> None:
        self._busy = False
        on_done(*args)
        self._pump()


class ReferenceDisk:
    """The disk model with every request queued and geometry read per use."""

    def __init__(
        self, engine, name: str, params: DiskParams, bus, seed: int, scheduler: str
    ) -> None:
        self._engine = engine
        self.name = name
        self.params = params
        self._bus = bus
        self._rng = random.Random((seed << 16) ^ (zlib.crc32(name.encode()) & 0xFFFF))
        self._scheduler = scheduler
        self._direction = 1
        self._queue: deque[DiskRequest] = deque()
        self._busy = False
        self._head_cylinder = 0
        self._last_end_block: int | None = None
        self._service_started = 0.0
        self.stats = DiskStats()

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def cylinder_of(self, block: int) -> int:
        return min(block // self.params.blocks_per_cylinder, self.params.cylinders - 1)

    def submit(self, kind: str, block: int, nbytes: int, on_done: Callable[[], None]) -> None:
        if kind not in ("read", "write"):
            raise SimulationError(f"unknown disk request kind {kind!r}")
        if nbytes <= 0:
            raise SimulationError(f"request size must be positive, got {nbytes}")
        if block < 0 or block >= self.params.blocks:
            raise SimulationError(f"block {block} out of range")
        self._queue.append(DiskRequest(kind, block, nbytes, on_done, self._engine.now))
        self.stats.queued_peak = max(self.stats.queued_peak, len(self._queue))
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        request = self._select()
        self._busy = True
        self._service_started = self._engine.now
        self.stats.requests += 1
        self.stats.queue_wait_time += self._engine.now - request.enqueued_at
        self.stats.max_queue_wait = max(
            self.stats.max_queue_wait, self._engine.now - request.enqueued_at
        )
        mechanical = self._mechanical_time(request)
        self._engine.post_after(mechanical, self._start_transfer, request)

    def _select(self) -> DiskRequest:
        if self._scheduler == "fcfs" or len(self._queue) == 1:
            return self._queue.popleft()
        if self._scheduler == "smallest":
            request = min(self._queue, key=lambda r: r.nbytes)
        elif self._scheduler == "sstf":
            request = min(
                self._queue,
                key=lambda r: abs(self.cylinder_of(r.block) - self._head_cylinder),
            )
        else:
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

    def _mechanical_time(self, request: DiskRequest) -> float:
        sequential = (
            self._last_end_block is not None and request.block == self._last_end_block
        )
        if sequential:
            self.stats.sequential_hits += 1
            return self.params.overhead
        target = self.cylinder_of(request.block)
        distance = abs(target - self._head_cylinder)
        seek = 0.0
        if distance > 0:
            seek = self.params.seek_base + self.params.seek_factor * distance**0.5
        rotation = self._rng.random() * self.params.rotation_period
        self._head_cylinder = target
        return self.params.overhead + seek + rotation

    def _start_transfer(self, request: DiskRequest) -> None:
        if self._bus is not None:
            rate = min(self.params.transfer_rate, self._bus.bandwidth)
            self._bus.transfer(request.nbytes / rate, self._finish, request)
        else:
            duration = request.nbytes / self.params.transfer_rate
            self._engine.post_after(duration, self._finish, request)

    def _finish(self, request: DiskRequest) -> None:
        blocks_spanned = max(1, -(-request.nbytes // self.params.block_size))
        self._last_end_block = request.block + blocks_spanned
        self._head_cylinder = self.cylinder_of(
            min(self._last_end_block, self.params.blocks - 1)
        )
        if request.kind == "read":
            self.stats.bytes_read += request.nbytes
        else:
            self.stats.bytes_written += request.nbytes
        self.stats.busy_time += self._engine.now - self._service_started
        self._busy = False
        request.on_done()
        self._pump()


#: 100 blocks over 7 cylinders of 14: the last cylinder is short, so both
#: cylinder clamps (seek target and post-transfer head) are reached.
TINY = DiskParams(cylinders=7, capacity=100 * 4096)
#: Fewer blocks than cylinders: one block per cylinder, so a transfer that
#: runs off the end parks the head on the last block, not the last cylinder.
SPARSE = DiskParams(cylinders=160, capacity=100 * 4096)
PARAMS = (DiskParams(), TINY, SPARSE, CDROM_PARAMS)
BUS_MODES = ("shared", "private", "none", "mixed")
#: Bus bandwidths above, between and below the two media rates.
BANDWIDTHS = (40_000_000.0, 5_000_000.0, 1_000_000.0)


@dataclasses.dataclass(frozen=True)
class Machine:
    """One device configuration: per-disk (scheduler, params), bus wiring."""

    disks: tuple[tuple[str, DiskParams], ...]
    bus_mode: str
    bandwidth: float


def build(machine: Machine, disk_cls, bus_cls):
    engine = Engine()
    shared = None if machine.bus_mode == "none" else bus_cls(engine, machine.bandwidth)
    buses = [] if shared is None else [shared]
    disks = []
    for i, (scheduler, params) in enumerate(machine.disks):
        if machine.bus_mode == "private":
            bus = bus_cls(engine, machine.bandwidth, name=f"bus{i}")
            buses.append(bus)
        elif machine.bus_mode == "none" or (machine.bus_mode == "mixed" and i == 0):
            bus = None
        else:
            bus = shared
        name = f"disk{i}"
        if disk_cls is Disk:
            disk = Disk(engine, name=name, params=params, bus=bus, seed=7 + i, scheduler=scheduler)
        else:
            disk = disk_cls(engine, name, params, bus, 7 + i, scheduler)
        disks.append(disk)
    return engine, disks, buses


def drive(machine: Machine, ops, disk_cls, bus_cls) -> dict:
    """Run ``ops`` on one implementation; return everything observable.

    An op is ``(gap, disk, kind, where, nbytes, follow_ups)``: after
    ``gap`` seconds, submit to disk ``disk % n``; ``where`` is a fraction
    of the disk's blocks, or ``None`` to continue the last request
    submitted to that disk.  Its completion callback logs the time and the
    state of disk ``(disk + follow_ups) % n``, then, if ``follow_ups`` is
    not 0, submits a continuation to that disk with one follow-up fewer,
    so chains of requests are submitted from completion callbacks.
    """
    engine, disks, buses = build(machine, disk_cls, bus_cls)
    n = len(disks)
    next_block = [0] * n
    log: list[tuple] = []
    submitted = [0]

    def submit(tag, index, kind, where, nbytes, follow_ups):
        disk = disks[index]
        blocks = disk.params.blocks
        if where is None:
            block = next_block[index] if next_block[index] < blocks else 0
        else:
            block = int(where * blocks)
        next_block[index] = block - (-nbytes // disk.params.block_size)
        submitted[0] += 1

        def done():
            target = (index + follow_ups) % n
            log.append((tag, engine.now, disks[target].busy, disks[target].queue_depth))
            if follow_ups:
                submit(tag + "+", target, kind, None, nbytes, follow_ups - 1)

        disk.submit(kind, block, nbytes, done)

    when = 0.0
    for i, (gap, index, kind, where, nbytes, follow_ups) in enumerate(ops):
        when += gap
        engine.post_at(when, submit, str(i), index % n, kind, where, nbytes, follow_ups)
    engine.run()
    assert all(not d.busy and d.queue_depth == 0 for d in disks)
    # The event contract: one submission event per op, then a positioning
    # event and a transfer event per request, bus or no bus.
    assert engine.events_fired == len(ops) + 2 * submitted[0]
    return {
        "log": log,
        "events_fired": engine.events_fired,
        "now": engine.now,
        "disk_stats": [dataclasses.asdict(d.stats) for d in disks],
        "bus_stats": [dataclasses.asdict(b.stats) for b in buses],
    }


def assert_same(machine: Machine, ops) -> dict:
    fast = drive(machine, ops, Disk, Bus)
    ref = drive(machine, ops, ReferenceDisk, ReferenceBus)
    assert fast["log"] == ref["log"]
    assert fast["events_fired"] == ref["events_fired"]
    assert fast["now"] == ref["now"]
    assert fast["disk_stats"] == ref["disk_stats"]
    assert fast["bus_stats"] == ref["bus_stats"]
    return fast


def seeded_ops(rng: random.Random, count: int):
    ops = []
    for _ in range(count):
        ops.append((
            rng.choice((0.0, 0.0, 0.0, 0.0005, 0.004, 0.03)),
            rng.randrange(3),
            rng.choice(("read", "write")),
            None if rng.random() < 0.3 else rng.random(),
            rng.choice((512, 4096, 8192, 65536, 262_144)),
            rng.choice((0, 0, 1, 3)),
        ))
    return ops


class TestAgainstReference:
    @pytest.mark.parametrize("n_disks", [1, 2, 3])
    @pytest.mark.parametrize("bus_mode", BUS_MODES)
    @pytest.mark.parametrize("scheduler", Disk.SCHEDULERS)
    def test_seeded_streams(self, scheduler, bus_mode, n_disks):
        for seed in (1, 2):
            rng = random.Random(seed * 1000 + n_disks)
            machine = Machine(
                disks=tuple(
                    (scheduler, PARAMS[(seed + i) % len(PARAMS)]) for i in range(n_disks)
                ),
                bus_mode=bus_mode,
                bandwidth=BANDWIDTHS[(seed + n_disks) % len(BANDWIDTHS)],
            )
            result = assert_same(machine, seeded_ops(rng, 60))
            stats = result["disk_stats"]
            assert sum(s["requests"] for s in stats) > 60  # follow-ups ran too
            if n_disks == 1:
                # Same-instant bursts queue, and continuations hit the
                # track buffer: both paths are exercised, not just one.
                assert stats[0]["queued_peak"] > 1
                assert stats[0]["sequential_hits"] > 0

    @settings(max_examples=60, deadline=None)
    @given(
        machine=st.builds(
            Machine,
            disks=st.lists(
                st.tuples(st.sampled_from(Disk.SCHEDULERS), st.sampled_from(PARAMS)),
                min_size=1,
                max_size=3,
            ).map(tuple),
            bus_mode=st.sampled_from(BUS_MODES),
            bandwidth=st.sampled_from(BANDWIDTHS),
        ),
        ops=st.lists(
            st.tuples(
                st.sampled_from((0.0, 0.0005, 0.004, 0.03)),
                st.integers(0, 2),
                st.sampled_from(("read", "write")),
                st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)),
                st.sampled_from((512, 4096, 8192, 65536, 262_144)),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_generated_streams(self, machine, ops):
        assert_same(machine, ops)


def drive_bus(ops, bus_cls) -> dict:
    """Transfers straight onto one bus, with callbacks that schedule more work.

    An op is ``(gap, duration, follow_ups)``.  A completion logs the time
    and the bus state; with follow-ups left it posts a marker event and
    submits the next transfer, so a bus that started its next waiting
    transfer at the wrong moment would reorder same-time events.
    """
    engine = Engine()
    bus = bus_cls(engine, 40_000_000.0)
    log: list[tuple] = []

    def submit(tag, duration, follow_ups):
        bus.transfer(duration, done, tag, duration, follow_ups)

    def done(tag, duration, follow_ups):
        log.append((tag, engine.now, bus.busy, bus.queue_depth))
        if follow_ups:
            engine.post_after(duration, log.append, ("marker", tag, engine.now))
            submit(tag + "+", duration, follow_ups - 1)

    when = 0.0
    for i, (gap, duration, follow_ups) in enumerate(ops):
        when += gap
        engine.post_at(when, submit, str(i), duration, follow_ups)
    engine.run()
    return {
        "log": log,
        "events_fired": engine.events_fired,
        "stats": dataclasses.asdict(bus.stats),
    }


class TestBusAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from((0.0, 0.001, 0.002)),
            st.sampled_from((0.0, 0.001, 0.002)),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=30,
    ))
    def test_generated_streams(self, ops):
        assert drive_bus(ops, Bus) == drive_bus(ops, ReferenceBus)

    def test_same_time_events_keep_their_order(self):
        rng = random.Random(11)
        ops = [
            (rng.choice((0.0, 0.0, 0.001)), rng.choice((0.0, 0.001, 0.002)), rng.randrange(4))
            for _ in range(80)
        ]
        fast = drive_bus(ops, Bus)
        assert fast == drive_bus(ops, ReferenceBus)
        assert fast["stats"]["queued_peak"] > 1


class TestCallbackSubmission:
    """A request submitted from a completion callback queues behind the waiting ones."""

    @pytest.mark.parametrize("impl", [(Disk, Bus), (ReferenceDisk, ReferenceBus)],
                             ids=["fast", "reference"])
    @pytest.mark.parametrize("bus_mode", ["shared", "none"])
    def test_fcfs_order(self, impl, bus_mode):
        machine = Machine(disks=(("fcfs", DiskParams()),), bus_mode=bus_mode,
                          bandwidth=BANDWIDTHS[0])
        engine, (disk,), _ = build(machine, *impl)
        order = []

        def first_done():
            order.append("a")
            # The drive is idle here, with b and c still waiting.
            assert not disk.busy and disk.queue_depth == 2
            disk.submit("read", 10, 4096, lambda: order.append("d"))

        disk.submit("read", 500_000, 4096, first_done)
        disk.submit("read", 1000, 4096, lambda: order.append("b"))
        disk.submit("read", 900_000, 4096, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c", "d"]
        assert disk.stats.queued_peak == 3  # d joined b and c
        assert engine.events_fired == 2 * 4

    def test_idle_device_serves_at_once(self):
        machine = Machine(disks=(("fcfs", DiskParams()),), bus_mode="shared",
                          bandwidth=BANDWIDTHS[0])
        for impl in ((Disk, Bus), (ReferenceDisk, ReferenceBus)):
            engine, (disk,), (bus,) = build(machine, *impl)
            disk.submit("write", 0, 65536, lambda: None)
            assert disk.busy and disk.queue_depth == 0
            assert disk.stats.queued_peak == 1 and disk.stats.requests == 1
            engine.run()
            assert bus.stats.queued_peak == 1 and bus.stats.transfers == 1
            assert disk.stats.queue_wait_time == 0.0
