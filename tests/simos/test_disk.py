"""Disk model: seek/rotation/transfer, FCFS, symmetry."""

from __future__ import annotations

import math

import pytest

from repro.simos.bus import Bus
from repro.simos.disk import CDROM_PARAMS, Disk, DiskParams
from repro.simos.engine import Engine, SimulationError


def _complete(disk, engine, kind, block, nbytes):
    done = []
    disk.submit(kind, block, nbytes, lambda: done.append(engine.now))
    engine.run()
    return done[0]


class TestServiceTimes:
    def test_read_takes_positive_time(self):
        engine = Engine()
        disk = Disk(engine)
        t = _complete(disk, engine, "read", 1000, 65536)
        assert t > 0.0

    def test_service_time_has_sane_magnitude(self):
        """A random 64 KB read on the modeled drive takes ~5-40 ms."""
        engine = Engine()
        disk = Disk(engine)
        t = _complete(disk, engine, "read", 500_000, 65536)
        assert 0.005 <= t <= 0.04

    def test_sequential_reads_skip_positioning(self):
        engine = Engine()
        disk = Disk(engine)
        times = []
        blocks_per_64k = 65536 // disk.params.block_size
        prev = 0.0
        for i in range(8):
            done = []
            disk.submit("read", 1000 + i * blocks_per_64k, 65536, lambda: done.append(engine.now))
            engine.run()
            times.append(done[0] - prev)
            prev = done[0]
        # After the first (seek) the rest ride the track buffer: only
        # overhead + transfer (~6.9 ms at 10 MB/s).
        for t in times[1:]:
            assert t == pytest.approx(65536 / disk.params.transfer_rate, rel=0.2)
        assert disk.stats.sequential_hits >= 7

    def test_long_seeks_cost_more_on_average(self):
        near_total = far_total = 0.0
        for seed in range(8):
            engine = Engine()
            disk = Disk(engine, seed=seed)
            _complete(disk, engine, "read", 0, 4096)  # park head at 0
            near_total += _complete(disk, engine, "read", 2_000, 4096)
            engine2 = Engine()
            disk2 = Disk(engine2, seed=seed)
            _complete(disk2, engine2, "read", 0, 4096)
            far_total += _complete(disk2, engine2, "read", 1_000_000, 4096)
        assert far_total > near_total

    def test_cdrom_is_much_slower(self):
        engine = Engine()
        cd = Disk(engine, name="cd", params=CDROM_PARAMS)
        t = _complete(cd, engine, "read", 100_000, 65536)
        engine2 = Engine()
        hd = Disk(engine2)
        t_hd = _complete(hd, engine2, "read", 100_000, 65536)
        assert t > 3 * t_hd


class TestQueueing:
    def test_fcfs_order(self):
        engine = Engine()
        disk = Disk(engine)
        order = []
        for name, block in (("a", 10), ("b", 500_000), ("c", 20)):
            disk.submit("read", block, 4096, lambda n=name: order.append(n))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_symmetric_contention(self):
        """Two identical request streams see similar total service."""
        engine = Engine()
        disk = Disk(engine)
        finish = {}

        def stream(name, offset, count=50):
            remaining = [count]

            def next_request():
                if remaining[0] == 0:
                    finish[name] = engine.now
                    return
                remaining[0] -= 1
                block = (offset + remaining[0] * 9973) % 1_000_000
                disk.submit("read", block, 65536, next_request)

            next_request()

        stream("a", 0)
        stream("b", 1)
        engine.run()
        ratio = finish["a"] / finish["b"]
        assert 0.8 <= ratio <= 1.25

    def test_favor_small_creates_asymmetry(self):
        """The section-3 ablation: a small-transfer scheduler is unfair."""
        engine = Engine()
        disk = Disk(engine, favor_small=True)
        order = []
        # Seed a long queue: one big transfer then many small ones.
        disk.submit("read", 0, 1_048_576, lambda: order.append("big"))
        disk.submit("read", 500_000, 1_048_576, lambda: order.append("big2"))
        for i in range(5):
            disk.submit("read", i * 1000, 4096, lambda i=i: order.append(f"small{i}"))
        engine.run()
        # All smalls jump ahead of the second big transfer.
        assert order.index("big2") > order.index("small4")


class TestValidation:
    def test_unknown_kind_rejected(self):
        disk = Disk(Engine())
        with pytest.raises(SimulationError):
            disk.submit("scan", 0, 4096, lambda: None)

    def test_out_of_range_block_rejected(self):
        disk = Disk(Engine())
        with pytest.raises(SimulationError):
            disk.submit("read", disk.params.blocks, 4096, lambda: None)

    def test_zero_bytes_rejected(self):
        disk = Disk(Engine())
        with pytest.raises(SimulationError):
            disk.submit("read", 0, 0, lambda: None)

    def test_stats_accumulate(self):
        engine = Engine()
        disk = Disk(engine)
        _complete(disk, engine, "read", 0, 8192)
        _complete(disk, engine, "write", 100, 4096)
        assert disk.stats.requests == 2
        assert disk.stats.bytes_read == 8192
        assert disk.stats.bytes_written == 4096


class TestParamsValidation:
    """A bad drive fails when its parameters are built, not mid-run.

    Before these checks, a zero transfer rate raised ``ZeroDivisionError``
    out of ``Kernel.run`` at the first transfer, and a NaN rotation period
    failed the thread with the disk left busy for good.
    """

    @pytest.mark.parametrize(
        "field, value",
        [
            ("transfer_rate", 0.0),
            ("transfer_rate", -1.0),
            ("transfer_rate", math.nan),
            ("transfer_rate", math.inf),
            ("rotation_period", 0.0),
            ("rotation_period", math.nan),
            ("rotation_period", math.inf),
            ("overhead", -1.0),
            ("overhead", math.nan),
            ("seek_base", -0.001),
            ("seek_base", math.inf),
            ("seek_factor", math.inf),
            ("seek_factor", math.nan),
            ("cylinders", 0),
            ("cylinders", 5200.0),
            ("capacity", -4096),
            ("capacity", 4.3e9),
            ("block_size", 0),
            ("block_size", True),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(SimulationError, match=f"DiskParams.{field}"):
            DiskParams(**{field: value})

    def test_zero_seek_and_overhead_accepted(self):
        params = DiskParams(seek_base=0.0, seek_factor=0.0, overhead=0.0)
        engine = Engine()
        disk = Disk(engine, params=params)
        # One rotation at most: no overhead and no seek cost anything.
        assert 0.0 < _complete(disk, engine, "read", 1000, 4096) < (
            params.rotation_period + 4096 / params.transfer_rate
        )


class TestBusCoupling:
    def test_shared_bus_serializes_transfers(self):
        """Two disks transferring simultaneously interfere via the bus."""

        def run(shared: bool) -> float:
            engine = Engine()
            bus = Bus(engine, 40_000_000.0) if shared else None
            disks = [
                Disk(engine, name=f"d{i}", bus=bus, seed=i) for i in range(2)
            ]
            finish = {}

            def stream(disk, name, count=40):
                remaining = [count]

                def next_request():
                    if remaining[0] == 0:
                        finish[name] = engine.now
                        return
                    remaining[0] -= 1
                    disk.submit("read", (remaining[0] * 7919) % 500_000, 262_144, next_request)

                next_request()

            for i, d in enumerate(disks):
                stream(d, f"s{i}")
            engine.run()
            return max(finish.values())

        assert run(shared=True) > run(shared=False)

    def test_bus_stats(self):
        engine = Engine()
        bus = Bus(engine, 40_000_000.0)
        disk = Disk(engine, bus=bus)
        done = []
        disk.submit("read", 0, 65536, lambda: done.append(engine.now))
        engine.run()
        assert bus.stats.transfers == 1
        assert bus.stats.busy_time > 0.0

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_transfer_is_rejected_before_the_bus_moves(self, duration):
        engine = Engine()
        bus = Bus(engine, 40_000_000.0)
        with pytest.raises(SimulationError, match="finite"):
            bus.transfer(duration, lambda: None)
        assert not bus.busy
        assert bus.queue_depth == 0
        assert bus.stats.transfers == 0
        assert bus.stats.busy_time == 0.0
        done = []
        bus.transfer(0.001, lambda: done.append(engine.now))
        engine.run()
        assert done == [0.001]
        assert bus.stats.busy_time == 0.001
