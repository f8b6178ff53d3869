"""Filesystem: extents, allocation, journal, relocation, SIS merges."""

from __future__ import annotations

import bisect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simos.engine import SimulationError
from repro.simos.filesystem import ChangeRecord, Extent, Volume, populate_volume


def make_volume(blocks=10_000) -> Volume:
    return Volume("C", "C", total_blocks=blocks)


class TestAllocation:
    def test_create_file_accounts_blocks(self):
        vol = make_volume()
        f = vol.create_file("a", 10 * 4096, when=0.0)
        assert f.blocks == 10
        assert vol.used_blocks == 10
        assert vol.free_blocks == 10_000 - 10

    def test_delete_frees_blocks(self):
        vol = make_volume()
        f = vol.create_file("a", 10 * 4096, when=0.0)
        vol.delete_file(f.file_id, when=1.0)
        assert vol.free_blocks == 10_000
        assert vol.file_count == 0

    def test_free_extents_coalesce(self):
        vol = make_volume()
        files = [vol.create_file(f"f{i}", 4096, when=0.0) for i in range(5)]
        for f in files:
            vol.delete_file(f.file_id, when=1.0)
        assert vol.largest_free_extent() == 10_000

    def test_fragmented_allocation(self):
        vol = make_volume()
        f = vol.create_file("a", 100 * 4096, when=0.0, fragments=5, spread_seed=3)
        assert f.fragments == 5
        assert f.blocks == 100

    def test_full_volume_rejected(self):
        vol = make_volume(blocks=10)
        with pytest.raises(SimulationError, match="full"):
            vol.create_file("a", 11 * 4096, when=0.0)

    def test_duplicate_path_rejected(self):
        vol = make_volume()
        vol.create_file("a", 4096, when=0.0)
        with pytest.raises(SimulationError):
            vol.create_file("a", 4096, when=0.0)

    def test_no_contiguous_run(self):
        vol = make_volume(blocks=100)
        # Fragment the free space completely with alternating files.
        keep = []
        for i in range(50):
            keep.append(vol.create_file(f"k{i}", 4096, when=0.0))
            vol.create_file(f"d{i}", 4096, when=0.0)
        for f in keep:
            vol.delete_file(f.file_id, when=1.0)
        with pytest.raises(SimulationError, match="contiguous"):
            vol.allocate(2, fragments=1)

    @pytest.mark.parametrize("blocks", [2.5, 3.0, True, 0, -1])
    def test_allocate_takes_only_a_positive_int(self, blocks):
        vol = make_volume(blocks=100)
        with pytest.raises(SimulationError, match="positive int"):
            vol.allocate(blocks)
        assert vol.free_blocks == 100
        assert vol.allocate(100) == [Extent(0, 100)]

    @pytest.mark.parametrize("size", [-4096, -1, 4096.5, 4096.0, True])
    def test_create_file_takes_only_a_non_negative_int_size(self, size):
        vol = make_volume(blocks=100)
        with pytest.raises(SimulationError, match="non-negative int"):
            vol.create_file("a", size, when=0.0)
        assert vol.free_blocks == 100
        assert vol.file_count == 0
        assert vol.journal_since(0) == []
        # Nothing was taken: the path and the id are still free.
        f = vol.create_file("a", 0, when=0.0)
        assert (f.file_id, f.blocks, f.extents) == (1, 1, [Extent(0, 1)])

    def test_failed_multi_fragment_allocation_is_undone(self):
        # Free runs of 30 and 60 blocks: the first 45-block piece fits in
        # the 60-block run, the second fits nowhere.
        vol = make_volume(blocks=100)
        first = vol.allocate(30)
        vol.allocate(10)
        vol.free(first)
        assert vol.free_blocks == 90
        with pytest.raises(SimulationError, match="contiguous"):
            vol.allocate(90, fragments=2)
        assert vol.free_blocks == 90
        assert vol.largest_free_extent() == 60
        assert vol.allocate(60) == [Extent(40, 60)]
        assert vol.allocate(30) == [Extent(0, 30)]


class TestJournal:
    def test_create_logs_record(self):
        vol = make_volume()
        f = vol.create_file("a", 4096, when=1.5)
        records = vol.journal_since(0)
        assert len(records) == 1
        assert records[0].reason == "create"
        assert records[0].file_id == f.file_id
        assert records[0].when == 1.5

    def test_journal_since_is_exclusive(self):
        vol = make_volume()
        vol.create_file("a", 4096, when=0.0)
        usn = vol.last_usn
        vol.create_file("b", 4096, when=1.0)
        records = vol.journal_since(usn)
        assert [r.reason for r in records] == ["create"]
        assert vol.journal_since(vol.last_usn) == []

    def test_modify_and_delete_logged(self):
        vol = make_volume()
        f = vol.create_file("a", 4096, when=0.0)
        vol.modify_file(f.file_id, when=1.0, new_content_id=99)
        vol.delete_file(f.file_id, when=2.0)
        reasons = [r.reason for r in vol.journal_since(0)]
        assert reasons == ["create", "modify", "delete"]

    def test_usns_strictly_increase(self):
        vol = make_volume()
        for i in range(10):
            vol.create_file(f"f{i}", 4096, when=0.0)
        usns = [r.usn for r in vol.journal_since(0)]
        assert usns == sorted(usns)
        assert len(set(usns)) == len(usns)

    def test_negative_usn_rejected(self):
        vol = make_volume()
        for i in range(4):
            vol.create_file(f"f{i}", 4096, when=0.0)
        with pytest.raises(SimulationError, match="non-negative"):
            vol.journal_since(-1)
        assert len(vol.journal_since(0)) == 4


class TestReadPlan:
    def test_covers_whole_file(self):
        vol = make_volume()
        f = vol.create_file("a", 300_000, when=0.0, fragments=4, spread_seed=1)
        plan = vol.read_plan(f.file_id)
        assert sum(nbytes for _, nbytes in plan) == 300_000

    def test_chunk_cap(self):
        vol = make_volume()
        f = vol.create_file("a", 1_000_000, when=0.0)
        plan = vol.read_plan(f.file_id, chunk_bytes=65536)
        assert all(nbytes <= 65536 for _, nbytes in plan)

    def test_disk_block_offset_applied(self):
        vol = Volume("C", "C", total_blocks=100, start_block=5000)
        f = vol.create_file("a", 4096, when=0.0)
        plan = vol.read_plan(f.file_id)
        assert plan[0][0] >= 5000


def reference_read_plan(vol, file_id, chunk_bytes=65536):
    """The read loop as first written: ``min`` and ``to_disk_block`` per chunk."""
    f = vol.file(file_id)
    if f.sis_link is not None:
        return reference_read_plan(vol, f.sis_link, chunk_bytes)
    chunk_blocks = max(1, chunk_bytes // vol.block_size)
    remaining_bytes = f.size
    ops = []
    for extent in f.extents:
        offset = 0
        while offset < extent.count and remaining_bytes > 0:
            run = min(chunk_blocks, extent.count - offset)
            nbytes = min(run * vol.block_size, remaining_bytes)
            ops.append((vol.to_disk_block(extent.start + offset), nbytes))
            remaining_bytes -= nbytes
            offset += run
    return ops


def reference_write_plan(vol, target, size, chunk_bytes=65536):
    """The relocation write loop as first written, over one target extent."""
    chunk_blocks = max(1, chunk_bytes // vol.block_size)
    writes = []
    offset = 0
    remaining_bytes = size
    while offset < target.count and remaining_bytes > 0:
        run = min(chunk_blocks, target.count - offset)
        nbytes = min(run * vol.block_size, remaining_bytes)
        writes.append((vol.to_disk_block(target.start + offset), nbytes))
        remaining_bytes -= nbytes
        offset += run
    return writes


class TestChunkPlans:
    """One chunk planner gives the plans of the two loops it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        block_size=st.sampled_from((512, 3000, 4096)),
        start_block=st.sampled_from((0, 1, 5000)),
        chunk_blocks=st.integers(0, 20),
        chunk_extra=st.sampled_from((0, 1, 7, -1)),
        files=st.lists(
            st.tuples(st.integers(1, 40), st.integers(0, 4095), st.integers(1, 8)),
            min_size=1,
            max_size=10,
        ),
        seed=st.integers(0, 1 << 16),
    )
    def test_plans_match_the_original_loops(
        self, block_size, start_block, chunk_blocks, chunk_extra, files, seed
    ):
        # Chunks below, equal to, above and not a multiple of the block.
        chunk_bytes = max(1, chunk_blocks * block_size + chunk_extra)
        vol = Volume(
            "C", "C", total_blocks=2_000, block_size=block_size,
            start_block=start_block,
        )
        rng = random.Random(seed)
        made = []
        for i, (blocks, tail, fragments) in enumerate(files):
            # Sizes that end mid-block as well as on a block boundary.
            size = (blocks - 1) * block_size + 1 + tail % block_size
            made.append(
                vol.create_file(
                    f"f{i}", size, when=0.0, fragments=fragments,
                    spread_seed=rng.randrange(1 << 30),
                )
            )
            filler = vol.create_file(f"filler{i}", rng.randint(1, 8) * block_size, when=0.0)
            if rng.random() < 0.5:
                vol.delete_file(filler.file_id, when=0.0)
        keeper = made[0]
        dup = vol.create_file("dup", keeper.size, when=0.0, content_id=keeper.content_id)
        vol.merge_duplicate(dup.file_id, keeper.file_id, when=0.0)
        for f in made + [dup]:
            assert vol.read_plan(f.file_id, chunk_bytes) == reference_read_plan(
                vol, f.file_id, chunk_bytes
            )
        for f in made:
            reads = reference_read_plan(vol, f.file_id, chunk_bytes)
            plan = vol.relocation_plan(f.file_id, chunk_bytes)
            if plan is None:
                assert f.fragments <= 1 or f.sis_link is not None or (
                    vol.largest_free_extent() < f.blocks
                )
                continue
            assert plan[0] == reads
            assert len(plan[2]) == 1
            assert plan[1] == reference_write_plan(vol, plan[2][0], f.size, chunk_bytes)
            vol.commit_relocation(f.file_id, plan[2], when=1.0)


class TestRelocation:
    def test_contiguous_file_needs_no_plan(self):
        vol = make_volume()
        f = vol.create_file("a", 40_960, when=0.0, fragments=1)
        assert vol.relocation_plan(f.file_id) is None

    def test_plan_and_commit_defragment(self):
        vol = make_volume()
        f = vol.create_file("a", 40 * 4096, when=0.0, fragments=4, spread_seed=7)
        plan = vol.relocation_plan(f.file_id)
        assert plan is not None
        reads, writes, new_extents = plan
        assert sum(n for _, n in reads) == f.size
        assert sum(n for _, n in writes) == f.size
        assert len(new_extents) == 1
        vol.commit_relocation(f.file_id, new_extents, when=1.0)
        assert vol.file(f.file_id).fragments == 1
        # Block accounting is conserved.
        assert vol.used_blocks == 40

    def test_abort_restores_free_space(self):
        vol = make_volume()
        f = vol.create_file("a", 40 * 4096, when=0.0, fragments=4, spread_seed=7)
        free_before = vol.free_blocks
        plan = vol.relocation_plan(f.file_id)
        assert plan is not None
        _, _, new_extents = plan
        vol.abort_relocation(new_extents)
        assert vol.free_blocks == free_before

    def test_relocation_logged(self):
        vol = make_volume()
        f = vol.create_file("a", 40 * 4096, when=0.0, fragments=4, spread_seed=7)
        _, _, new_extents = vol.relocation_plan(f.file_id)
        vol.commit_relocation(f.file_id, new_extents, when=2.0)
        assert vol.journal_since(0)[-1].reason == "relocate"


class TestSisMerge:
    def test_merge_reclaims_blocks(self):
        vol = make_volume()
        a = vol.create_file("a", 10 * 4096, when=0.0, content_id=7)
        b = vol.create_file("b", 10 * 4096, when=0.0, content_id=7)
        reclaimed = vol.merge_duplicate(b.file_id, a.file_id, when=1.0)
        assert reclaimed == 10
        assert vol.used_blocks == 10
        assert vol.file(b.file_id).sis_link == a.file_id

    def test_merge_requires_equal_content(self):
        vol = make_volume()
        a = vol.create_file("a", 4096, when=0.0, content_id=1)
        b = vol.create_file("b", 4096, when=0.0, content_id=2)
        with pytest.raises(SimulationError):
            vol.merge_duplicate(b.file_id, a.file_id, when=1.0)

    def test_double_merge_is_noop(self):
        vol = make_volume()
        a = vol.create_file("a", 4096, when=0.0, content_id=1)
        b = vol.create_file("b", 4096, when=0.0, content_id=1)
        vol.merge_duplicate(b.file_id, a.file_id, when=1.0)
        assert vol.merge_duplicate(b.file_id, a.file_id, when=2.0) == 0

    def test_merge_into_itself_rejected(self):
        vol = make_volume()
        a = vol.create_file("a", 4 * 4096, when=0.0, content_id=1)
        with pytest.raises(SimulationError, match="itself"):
            vol.merge_duplicate(a.file_id, a.file_id, when=1.0)
        assert vol.file(a.file_id).sis_link is None
        assert vol.used_blocks == 4
        assert len(vol.read_plan(a.file_id)) == 1

    def test_merge_into_linked_keeper_rejected(self):
        # a -> b then b -> a would free both copies and make read_plan
        # follow the links forever.
        vol = make_volume()
        a = vol.create_file("a", 4 * 4096, when=0.0, content_id=1)
        b = vol.create_file("b", 4 * 4096, when=0.0, content_id=1)
        vol.merge_duplicate(a.file_id, b.file_id, when=1.0)
        with pytest.raises(SimulationError, match="linked"):
            vol.merge_duplicate(b.file_id, a.file_id, when=2.0)
        assert vol.file(b.file_id).sis_link is None
        assert vol.used_blocks == 4
        assert vol.read_plan(a.file_id) == vol.read_plan(b.file_id) != []

    def test_link_reads_through_to_keeper(self):
        vol = make_volume()
        a = vol.create_file("a", 8 * 4096, when=0.0, content_id=1)
        b = vol.create_file("b", 8 * 4096, when=0.0, content_id=1)
        vol.merge_duplicate(b.file_id, a.file_id, when=1.0)
        assert vol.read_plan(b.file_id) == vol.read_plan(a.file_id)

    def test_modify_clears_link(self):
        vol = make_volume()
        a = vol.create_file("a", 4096, when=0.0, content_id=1)
        b = vol.create_file("b", 4096, when=0.0, content_id=1)
        vol.merge_duplicate(b.file_id, a.file_id, when=1.0)
        vol.modify_file(b.file_id, when=2.0, new_content_id=5)
        assert vol.file(b.file_id).sis_link is None

    def test_modify_on_full_volume_keeps_link(self):
        vol = make_volume(blocks=20)
        a = vol.create_file("a", 10 * 4096, when=0.0, content_id=1)
        b = vol.create_file("b", 10 * 4096, when=0.0, content_id=1)
        vol.merge_duplicate(b.file_id, a.file_id, when=1.0)
        vol.create_file("c", 10 * 4096, when=1.5)
        usn = vol.last_usn
        with pytest.raises(SimulationError, match="full"):
            vol.modify_file(b.file_id, when=2.0, new_content_id=5)
        linked = vol.file(b.file_id)
        assert linked.sis_link == a.file_id
        assert linked.mtime == 0.0
        assert linked.content_id == 1
        assert vol.read_plan(b.file_id) == vol.read_plan(a.file_id)
        assert vol.journal_since(usn) == []

    def test_delete_linked_keeper_rejected(self):
        # Deleting a keeper would free the only copy of its linked files.
        vol = make_volume(blocks=100)
        a = vol.create_file("a", 10 * 4096, when=0.0, content_id=7)
        b = vol.create_file("b", 10 * 4096, when=0.0, content_id=7)
        vol.merge_duplicate(b.file_id, a.file_id, when=1.0)
        usn = vol.last_usn
        with pytest.raises(SimulationError, match="keeper"):
            vol.delete_file(a.file_id, when=2.0)
        assert vol.free_blocks == 90
        assert vol.file(a.file_id).extents == [Extent(0, 10)]
        assert vol.file(b.file_id).sis_link == a.file_id
        assert vol.read_plan(b.file_id) == vol.read_plan(a.file_id) != []
        assert vol.journal_since(usn) == []

    def test_keeper_deletable_once_links_are_gone(self):
        vol = make_volume(blocks=100)
        a = vol.create_file("a", 10 * 4096, when=0.0, content_id=7)
        b = vol.create_file("b", 10 * 4096, when=0.0, content_id=7)
        c = vol.create_file("c", 10 * 4096, when=0.0, content_id=7)
        vol.merge_duplicate(b.file_id, a.file_id, when=1.0)
        vol.merge_duplicate(c.file_id, a.file_id, when=1.0)
        vol.delete_file(b.file_id, when=2.0)
        with pytest.raises(SimulationError, match="keeper"):
            vol.delete_file(a.file_id, when=2.0)
        vol.modify_file(c.file_id, when=3.0)
        vol.delete_file(a.file_id, when=4.0)
        assert vol.file_count == 1
        assert vol.used_blocks == vol.file(c.file_id).blocks == 10
        assert vol.read_plan(c.file_id) != []


class TestPopulate:
    def test_populate_respects_parameters(self):
        vol = Volume("C", "C", total_blocks=200_000)
        rng = random.Random(1)
        files = populate_volume(
            vol, rng, file_count=100, duplicate_fraction=0.5
        )
        assert len(files) == 100
        assert vol.file_count == 100  # fillers deleted
        content_ids = [f.content_id for f in files]
        assert len(set(content_ids)) < 100  # duplicates exist

    def test_aging_spreads_files(self):
        """Aged layout: files are interleaved with holes, not densely packed."""
        vol = Volume("C", "C", total_blocks=200_000)
        rng = random.Random(2)
        files = populate_volume(vol, rng, file_count=100)
        first_starts = [f.extents[0].start for f in files]
        span = max(first_starts) - min(first_starts)
        used = sum(f.blocks for f in files)
        # The deleted fillers leave the live files spread over a region
        # substantially larger than their own footprint.
        assert span > 1.5 * used


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 60))
    def test_block_conservation_under_churn(self, seed, operations):
        """used + free == total after any create/delete/relocate sequence."""
        vol = make_volume(blocks=5_000)
        rng = random.Random(seed)
        live: list[int] = []
        for i in range(operations):
            action = rng.random()
            if action < 0.5 or not live:
                blocks = rng.randint(1, 40)
                if blocks <= vol.free_blocks:
                    try:
                        f = vol.create_file(
                            f"f{i}", blocks * 4096, when=float(i),
                            fragments=rng.randint(1, 4),
                            spread_seed=rng.randrange(1 << 20),
                        )
                        live.append(f.file_id)
                    except SimulationError:
                        pass  # fragmentation can defeat allocation
            elif action < 0.8:
                fid = live.pop(rng.randrange(len(live)))
                vol.delete_file(fid, when=float(i))
            else:
                fid = rng.choice(live)
                plan = vol.relocation_plan(fid)
                if plan is not None:
                    vol.commit_relocation(fid, plan[2], when=float(i))
            assert vol.used_blocks + vol.free_blocks == 5_000
            total_file_blocks = sum(vol.file(fid).blocks for fid in live)
            assert total_file_blocks == vol.used_blocks

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_extents_never_overlap(self, seed):
        vol = make_volume(blocks=3_000)
        rng = random.Random(seed)
        for i in range(20):
            try:
                vol.create_file(
                    f"f{i}", rng.randint(1, 50) * 4096, when=0.0,
                    fragments=rng.randint(1, 5),
                    spread_seed=rng.randrange(1 << 20),
                )
            except SimulationError:
                break
        claimed: set[int] = set()
        for f in vol.files():
            for extent in f.extents:
                blocks = set(range(extent.start, extent.end))
                assert not (blocks & claimed)
                claimed |= blocks


class ListVolume(Volume):
    """Reference free space: a plain address-sorted list of ``Extent``.

    The straightforward allocator: every fit is collected before the first
    is taken, and each free rebuilds the list of starts to bisect.  The
    free-space methods are replaced, and so is ``allocate``: this one seeds
    the spread rng whenever a seed is given, so the volume's one-run
    shortcut is checked against the draw it skips.  Both volumes share the
    file operations.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.runs = [Extent(0, self.total_blocks)]

    def allocate(self, blocks, fragments=1, spread_seed=None):
        if blocks <= 0:
            raise SimulationError(f"allocation must be positive, got {blocks}")
        if blocks > self.free_blocks:
            raise SimulationError(
                f"volume {self.name} full: need {blocks}, have {self.free_blocks}"
            )
        fragments = max(1, min(fragments, blocks))
        rng = random.Random(spread_seed) if spread_seed is not None else None
        out = []
        try:
            for size in self._split_sizes(blocks, fragments):
                out.append(self._allocate_piece(size, rng))
        except SimulationError:
            self.free(out)
            raise
        return out

    @property
    def free_blocks(self) -> int:
        return sum(e.count for e in self.runs)

    def largest_free_extent(self) -> int:
        return max((e.count for e in self.runs), default=0)

    def _allocate_piece(self, size, rng):
        candidates = [i for i, e in enumerate(self.runs) if e.count >= size]
        if candidates:
            index = rng.choice(candidates) if rng is not None else candidates[0]
            chunk = self.runs[index]
            rest = Extent(chunk.start + size, chunk.count - size)
            if rest.count > 0:
                self.runs[index] = rest
            else:
                del self.runs[index]
            return Extent(chunk.start, size)
        raise SimulationError(
            f"volume {self.name}: no contiguous run of {size} blocks "
            f"(largest free: {self.largest_free_extent()}); "
            "allocate with more fragments"
        )

    def free(self, extents):
        for extent in extents:
            starts = [e.start for e in self.runs]
            i = bisect.bisect_left(starts, extent.start)
            if i < len(self.runs) and extent.end == self.runs[i].start:
                extent = Extent(extent.start, extent.count + self.runs[i].count)
                del self.runs[i]
            if i > 0 and self.runs[i - 1].end == extent.start:
                extent = Extent(self.runs[i - 1].start, self.runs[i - 1].count + extent.count)
                del self.runs[i - 1]
                i -= 1
            self.runs.insert(i, extent)


def free_runs(vol: Volume) -> list[Extent]:
    if isinstance(vol, ListVolume):
        return vol.runs
    return [Extent(s, c) for s, c in zip(vol._starts, vol._counts)]


def layout(vol: Volume) -> tuple:
    """Everything allocation decides: file extents, free runs, journal."""
    return (
        [(f.file_id, f.extents) for f in vol.files()],
        free_runs(vol),
        vol.journal_since(0),
    )


def apply_op(vol: Volume, op: tuple, step: int):
    """Run one operation; return what it produced, or the error it raised."""
    kind, *args = op
    live = sorted(f.file_id for f in vol.files())
    try:
        if kind == "create":
            blocks, fragments, spread_seed, content = args
            f = vol.create_file(
                f"f{step}", blocks * 4096 - 100, when=float(step),
                content_id=content, fragments=fragments, spread_seed=spread_seed,
            )
            return f.file_id, f.extents
        if not live:
            return None
        fid = live[args[0] % len(live)]
        if kind == "delete":
            vol.delete_file(fid, when=float(step))
            return fid
        if kind == "modify":
            vol.modify_file(fid, when=float(step))
            return vol.file(fid).extents
        if kind == "merge":
            others = [other for other in live if other != fid]
            if not others:
                return None
            return vol.merge_duplicate(fid, others[args[1] % len(others)], when=float(step))
        plan = vol.relocation_plan(fid)
        if plan is not None:
            if kind == "relocate":
                vol.commit_relocation(fid, plan[2], when=float(step))
            else:
                vol.abort_relocation(plan[2])
        return plan
    except SimulationError as exc:
        return ("error", str(exc))


_pick = st.integers(0, 1 << 16)
_create = st.tuples(
    st.just("create"), st.integers(1, 40), st.integers(1, 10),
    st.none() | st.integers(0, 1 << 20), st.sampled_from([None, 0, 1]),
)
# Creates are listed three times so volumes fill and fragment.
_ops = st.one_of(
    _create,
    _create,
    _create,
    st.tuples(st.just("delete"), _pick),
    st.tuples(st.just("modify"), _pick),
    st.tuples(st.just("merge"), _pick, _pick),
    st.tuples(st.just("relocate"), _pick),
    st.tuples(st.just("abort"), _pick),
)


class TestFreeSpaceDifferential:
    """Sorted parallel run lists behave exactly like the list of extents."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(16, 200), st.lists(_ops, min_size=20, max_size=80))
    def test_matches_list_reference(self, total_blocks, ops):
        vol = Volume("C", "C", total_blocks=total_blocks)
        ref = ListVolume("C", "C", total_blocks=total_blocks)
        for step, op in enumerate(ops):
            assert apply_op(vol, op, step) == apply_op(ref, op, step), op
            runs = free_runs(vol)
            assert runs == ref.runs
            assert vol.free_blocks == ref.free_blocks
            assert vol.largest_free_extent() == ref.largest_free_extent()
            # Sorted, disjoint, never adjacent, inside the volume.
            assert all(r.count > 0 for r in runs)
            assert all(a.end < b.start for a, b in zip(runs, runs[1:]))
            assert not runs or (runs[0].start >= 0 and runs[-1].end <= total_blocks)
            assert sum(r.count for r in runs) == vol.free_blocks
            assert vol.used_blocks == sum(f.blocks for f in vol.files())

    def test_populated_volume_matches_list_reference(self):
        # The Fig volumes: 640 aged files from a one-run free list, then a
        # second seeded tree drawn among the holes the fillers left.
        vol = Volume("C", "C", total_blocks=700_000)
        ref = ListVolume("C", "C", total_blocks=700_000)
        for volume in (vol, ref):
            rng = random.Random(1 * 7919 + 13)
            populate_volume(
                volume, rng, file_count=640,
                size_range=(32 * 1024, 480 * 1024), fragment_range=(2, 10),
            )
            assert len(free_runs(volume)) > 2
            for i in range(200):
                volume.create_file(
                    f"tree2/file{i:05d}", rng.randint(32 * 1024, 480 * 1024),
                    when=0.0, fragments=rng.randint(2, 10),
                    spread_seed=rng.randrange(1 << 30),
                )
        assert layout(vol) == layout(ref)

    @pytest.mark.parametrize("spread_seed", range(8))
    def test_two_run_draw_matches_list_reference(self, spread_seed):
        # Free runs [0, 30) and [40, 100): both fit every piece, so the
        # seeded draw decides where each one goes.
        volumes = (make_volume(blocks=100), ListVolume("C", "C", total_blocks=100))
        for volume in volumes:
            first = volume.allocate(30)
            volume.allocate(10)
            volume.free(first)
            assert len(free_runs(volume)) == 2
            volume.create_file("f", 20 * 4096, when=0.0, fragments=2, spread_seed=spread_seed)
        assert layout(volumes[0]) == layout(volumes[1])


class TestOneRunAllocate:
    """Piece sizes carved from a one-run free list, against ``_split_sizes``."""

    @pytest.mark.parametrize(
        "blocks, fragments, sizes",
        [
            (10, 0, [10]),
            (10, -3, [10]),
            (10, 1, [10]),
            (10, 3, [4, 3, 3]),
            (10, 4, [3, 3, 2, 2]),
            (10, 10, [1] * 10),
            (10, 25, [1] * 10),
            (100, 7, [15, 15, 14, 14, 14, 14, 14]),
        ],
    )
    def test_fragment_counts(self, blocks, fragments, sizes):
        vol = make_volume(blocks=100)
        ref = ListVolume("C", "C", total_blocks=100)
        extents = vol.allocate(blocks, fragments=fragments)
        assert extents == ref.allocate(blocks, fragments=fragments)
        assert [e.count for e in extents] == sizes
        assert [e.start for e in extents] == list(itertools.accumulate([0] + sizes[:-1]))
        assert free_runs(vol) == ref.runs
        assert vol.free_blocks == 100 - blocks
        # Built without the NamedTuple constructor, but the same records.
        assert all(type(e) is Extent for e in extents)
        assert repr(extents[0]) == f"Extent(start=0, count={sizes[0]})"
        assert hash(extents[0]) == hash(Extent(0, sizes[0]))

    def test_journal_records_are_change_records(self):
        vol = make_volume(blocks=100)
        f = vol.create_file("a", 4096, when=2.5)
        (record,) = vol.journal_since(0)
        assert type(record) is ChangeRecord
        assert record == ChangeRecord(1, f.file_id, "create", 2.5)
        assert record.reason == "create" and record.when == 2.5
        assert repr(record) == (
            f"ChangeRecord(usn=1, file_id={f.file_id}, reason='create', when=2.5)"
        )


class TestFree:
    """``free`` places touching extents as one run and refuses bad runs."""

    @pytest.mark.parametrize("order", ["address", "reversed", "shuffled"])
    def test_touching_fragments_match_list_reference(self, order):
        # The Fig layout: every file's 2-10 fragments are carved end to
        # end from a one-run free list, and each file starts where the one
        # before it ends.  Files are freed alone or with their neighbour
        # in one call, their extents in or out of address order, with
        # seeded and first-fit allocations in between.
        rng = random.Random(f"touching-{order}")
        vol = make_volume(blocks=6_000)
        ref = ListVolume("C", "C", total_blocks=6_000)
        live = []
        for _ in range(60):
            blocks, fragments = rng.randint(2, 60), rng.randint(2, 10)
            extents = vol.allocate(blocks, fragments=fragments)
            assert extents == ref.allocate(blocks, fragments=fragments)
            assert all(a.end == b.start for a, b in zip(extents, extents[1:]))
            live.append(extents)
        merged_calls = most_runs = 0
        for _ in range(300):
            if live and rng.random() < 0.5:
                i = rng.randrange(len(live))
                extents = live.pop(i)
                if i < len(live) and rng.random() < 0.4:
                    extents = extents + live.pop(i)
                    merged_calls += 1
                if order == "reversed":
                    extents = extents[::-1]
                elif order == "shuffled":
                    extents = rng.sample(extents, len(extents))
                vol.free(extents)
                ref.free(extents)
            else:
                blocks, fragments = rng.randint(1, 80), rng.randint(1, 10)
                seed = rng.choice([None, rng.randrange(1 << 20)])
                try:
                    extents = vol.allocate(blocks, fragments=fragments, spread_seed=seed)
                except SimulationError as exc:
                    with pytest.raises(SimulationError) as ref_exc:
                        ref.allocate(blocks, fragments=fragments, spread_seed=seed)
                    assert str(exc) == str(ref_exc.value)
                else:
                    assert extents == ref.allocate(
                        blocks, fragments=fragments, spread_seed=seed
                    )
                    live.append(extents)
            assert free_runs(vol) == ref.runs
            assert vol.free_blocks == ref.free_blocks
            most_runs = max(most_runs, len(ref.runs))
        assert merged_calls > 10
        assert most_runs > 3  # the free list fragmented, not just one run

    def test_double_free_rejected(self):
        vol = make_volume(blocks=100)
        extents = vol.allocate(10)
        vol.free(extents)
        with pytest.raises(SimulationError, match="overlap free space"):
            vol.free(extents)
        assert vol.free_blocks == 100
        assert vol.used_blocks == 0
        assert free_runs(vol) == [Extent(0, 100)]

    @pytest.mark.parametrize(
        "extent",
        [
            Extent(10, 10),  # exactly a free run
            Extent(12, 3),  # inside a free run
            Extent(15, 10),  # overlaps the left neighbour's end
            Extent(5, 10),  # overlaps the right neighbour's start
            Extent(55, 10),  # overlaps the tail run
            Extent(0, 100),  # covers everything
        ],
    )
    def test_overlapping_free_rejected(self, extent):
        vol = make_volume(blocks=100)
        vol.allocate(60)
        vol.free([Extent(10, 10)])
        before = free_runs(vol)
        assert before == [Extent(10, 10), Extent(60, 40)]
        with pytest.raises(SimulationError, match="overlap free space"):
            vol.free([extent])
        assert free_runs(vol) == before
        assert vol.free_blocks == 50

    def test_overlap_inside_one_call_rejected(self):
        vol = make_volume(blocks=100)
        vol.allocate(100)
        with pytest.raises(SimulationError, match="overlap free space"):
            vol.free([Extent(30, 5), Extent(32, 5)])

    @pytest.mark.parametrize(
        "extent",
        [Extent(95, 10), Extent(100, 1), Extent(-5, 10), Extent(40, 0), Extent(40, -2)],
    )
    def test_run_outside_the_volume_rejected(self, extent):
        vol = make_volume(blocks=100)
        vol.allocate(100)
        with pytest.raises(SimulationError, match=r"outside \[0, 100\)"):
            vol.free([extent])
        assert free_runs(vol) == []
        assert vol.free_blocks == 0
