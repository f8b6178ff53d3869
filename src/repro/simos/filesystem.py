"""Simulated filesystem: volumes, extents, fragmentation, change journal.

Provides exactly the substrate the paper's two low-importance applications
need:

* the **disk defragmenter** (section 8) examines file layouts and
  "rearranges the blocks of one or more files to improve their physical
  locality" — so files here are lists of *extents* (contiguous block runs),
  volumes track free space, and a relocation plan can be computed and
  committed;
* the **SIS Groveler** (section 8) "scans the file system change journal, a
  log that records all changes to the contents of the file system", reads
  file contents, computes signatures, and merges duplicates — so volumes
  keep a USN-style change journal and files carry a content identity that
  duplicate files share.

A volume occupies a block range of one simulated disk; filesystem metadata
operations are free (they would be cached in RAM), while data I/O costs are
paid by the *applications*, which turn the plans produced here into
:class:`~repro.simos.effects.DiskRead`/:class:`DiskWrite` effects.  This
split keeps policy (what to read/write) in the filesystem and timing in the
disk model.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.simos.engine import SimulationError

__all__ = [
    "Extent",
    "SimFile",
    "ChangeRecord",
    "Volume",
    "populate_volume",
]

#: Builds an ``Extent`` or ``ChangeRecord`` from a field tuple without the
#: NamedTuple ``__new__`` call; the object is the same type with the same
#: fields.
_tuple_new = tuple.__new__


class Extent(NamedTuple):
    """A contiguous run of volume blocks."""

    start: int
    count: int

    @property
    def end(self) -> int:
        """One past the last block."""
        return self.start + self.count


@dataclass(slots=True)
class SimFile:
    """One file: a named sequence of extents with a content identity."""

    file_id: int
    path: str
    size: int
    extents: list[Extent]
    #: Files with equal ``content_id`` are byte-identical (what the
    #: Groveler's signature ultimately establishes).
    content_id: int
    mtime: float
    #: Set when the Groveler has merged this file into a common-store file.
    sis_link: int | None = None

    @property
    def blocks(self) -> int:
        """Number of blocks the file occupies."""
        total = 0
        for _, count in self.extents:
            total += count
        return total

    @property
    def fragments(self) -> int:
        """Number of extents (1 = fully contiguous)."""
        return len(self.extents)


class ChangeRecord(NamedTuple):
    """One entry of the USN-style change journal."""

    usn: int
    file_id: int
    reason: str  # "create" | "modify" | "delete" | "relocate" | "merge"
    when: float


class Volume:
    """A filesystem volume over a block range of one disk."""

    __slots__ = ("name", "disk", "start_block", "total_blocks", "block_size", "_files", "_by_path", "_links", "_starts", "_counts", "_free_total", "_journal", "_next_file_id", "_next_usn")

    def __init__(
        self,
        name: str,
        disk: str,
        total_blocks: int,
        block_size: int = 4096,
        start_block: int = 0,
    ) -> None:
        if total_blocks <= 0:
            raise SimulationError(f"volume needs blocks, got {total_blocks}")
        self.name = name
        #: Name of the backing disk (as registered with the kernel).
        self.disk = disk
        self.block_size = block_size
        self.total_blocks = total_blocks
        self.start_block = start_block
        # Free space as address-sorted parallel lists: run i covers blocks
        # [_starts[i], _starts[i] + _counts[i]).  Runs are disjoint and never
        # adjacent (freeing coalesces), and _free_total is their sum.
        self._starts: list[int] = [0]
        self._counts: list[int] = [total_blocks]
        self._free_total = total_blocks
        self._files: dict[int, SimFile] = {}
        self._by_path: dict[str, int] = {}
        # Keeper file id -> number of files SIS-linked to it (absent at 0).
        self._links: dict[int, int] = {}
        self._next_file_id = 1
        self._next_usn = 1
        self._journal: list[ChangeRecord] = []

    # -- bookkeeping ------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Unallocated blocks."""
        return self._free_total

    @property
    def used_blocks(self) -> int:
        """Allocated blocks."""
        return self.total_blocks - self.free_blocks

    @property
    def file_count(self) -> int:
        """Number of live files."""
        return len(self._files)

    def files(self) -> Iterator[SimFile]:
        """Iterate live files in file-id order."""
        for file_id in sorted(self._files):
            yield self._files[file_id]

    def file(self, file_id: int) -> SimFile:
        """Look up a file by id."""
        try:
            return self._files[file_id]
        except KeyError:
            raise SimulationError(f"no file id {file_id} on {self.name}") from None

    def lookup(self, path: str) -> SimFile:
        """Look up a file by path."""
        try:
            return self._files[self._by_path[path]]
        except KeyError:
            raise SimulationError(f"no file {path!r} on {self.name}") from None

    def mean_fragments_per_file(self) -> float:
        """Average extent count across files (1.0 = perfectly defragmented)."""
        if not self._files:
            return 0.0
        return sum(f.fragments for f in self._files.values()) / len(self._files)

    def to_disk_block(self, volume_block: int) -> int:
        """Translate a volume-relative block to a disk block number."""
        return self.start_block + volume_block

    # -- journal -------------------------------------------------------------------
    @property
    def last_usn(self) -> int:
        """USN of the most recent journal record (0 when empty)."""
        return self._next_usn - 1

    def journal_since(self, usn: int) -> list[ChangeRecord]:
        """Records with USN strictly greater than ``usn``."""
        if usn < 0:
            raise SimulationError(f"USN must be non-negative, got {usn}")
        # The journal is append-only and USNs are dense, so slice directly.
        if usn >= self.last_usn:
            return []
        return self._journal[usn:]

    def _log(self, file_id: int, reason: str, when: float) -> None:
        usn = self._next_usn
        self._journal.append(_tuple_new(ChangeRecord, (usn, file_id, reason, when)))
        self._next_usn = usn + 1

    # -- allocation --------------------------------------------------------------------
    def allocate(self, blocks: int, fragments: int = 1, spread_seed: int | None = None) -> list[Extent]:
        """Allocate ``blocks``, optionally deliberately split into fragments.

        ``fragments > 1`` scatters the allocation across the free list to
        build aged, fragmented layouts for experiments (cf. Smith &
        Seltzer's file-system aging, the paper's citation 24).

        All or nothing: when a later piece finds no run to fit in, the
        pieces already carved go back to the free list before the error
        propagates.  ``blocks`` must be an int (not a float or bool) of at
        least 1, checked before anything changes.
        """
        if not (blocks.__class__ is int and 0 < blocks):
            raise SimulationError(f"allocation must be a positive int, got {blocks!r}")
        if blocks > self._free_total:
            raise SimulationError(
                f"volume {self.name} full: need {blocks}, have {self._free_total}"
            )
        if fragments < 1:
            fragments = 1
        elif fragments > blocks:
            fragments = blocks
        starts = self._starts
        if len(starts) == 1:
            # Carving never adds a run, so from a one-run free list every
            # piece has one candidate and first fit and the seeded random
            # fit agree: the pieces lie end to end from the run's start,
            # and the run (which holds all ``blocks``) shrinks once.  The
            # first ``extra`` pieces are one block longer, as in
            # ``_split_sizes``.
            base, extra = divmod(blocks, fragments)
            size = base + 1
            start = starts[0]
            out: list[Extent] = []
            for i in range(fragments):
                if i == extra:
                    size = base
                out.append(_tuple_new(Extent, (start, size)))
                start += size
            counts = self._counts
            if counts[0] > blocks:
                starts[0] = start
                counts[0] -= blocks
            else:
                del starts[0]
                del counts[0]
            self._free_total -= blocks
            return out
        rng = random.Random(spread_seed) if spread_seed is not None else None
        out = []
        try:
            for size in self._split_sizes(blocks, fragments):
                out.append(self._allocate_piece(size, rng))
        except SimulationError:
            self.free(out)
            raise
        return out

    def _split_sizes(self, blocks: int, fragments: int) -> list[int]:
        base = blocks // fragments
        sizes = [base] * fragments
        for i in range(blocks - base * fragments):
            sizes[i] += 1
        return [s for s in sizes if s > 0]

    def _allocate_piece(self, size: int, rng: random.Random | None) -> Extent:
        # First-fit for determinism; a seeded rng picks a random fit instead,
        # which is how fragmented (aged) layouts are manufactured.  The rng
        # must see every fit, so it chooses from the full candidate list.
        counts = self._counts
        index = -1
        if rng is None:
            for i, count in enumerate(counts):
                if count >= size:
                    index = i
                    break
        else:
            candidates = [i for i, count in enumerate(counts) if count >= size]
            if candidates:
                index = rng.choice(candidates)
        if index < 0:
            raise SimulationError(
                f"volume {self.name}: no contiguous run of {size} blocks "
                f"(largest free: {self.largest_free_extent()}); "
                "allocate with more fragments"
            )
        start = self._starts[index]
        if counts[index] > size:
            self._starts[index] = start + size
            counts[index] -= size
        else:
            del self._starts[index]
            del counts[index]
        self._free_total -= size
        return _tuple_new(Extent, (start, size))

    def free(self, extents: list[Extent]) -> None:
        """Return extents to the free pool (coalescing neighbours).

        Consecutive extents that touch (each starts where the one before
        ends, as a fragmented file's pieces do) are placed as one run, so
        a file laid out end to end costs one bisect.  A run that overlaps
        free space or leaves the volume raises :class:`SimulationError`
        (a double free would otherwise count its blocks twice, and a
        later fit could hand them to two files); the runs placed before
        it stay freed.
        """
        starts, counts = self._starts, self._counts
        total = self.total_blocks
        n = len(extents)
        k = 0
        while k < n:
            start, count = extents[k]
            end = start + count
            k += 1
            while k < n:
                next_start, count = extents[k]
                if next_start != end:
                    break
                end += count
                k += 1
            if not 0 <= start < end <= total:
                raise SimulationError(
                    f"volume {self.name}: cannot free blocks [{start}, {end}), "
                    f"outside [0, {total})"
                )
            i = bisect_left(starts, start)
            left_end = starts[i - 1] + counts[i - 1] if i else -1
            right = starts[i] if i < len(starts) else total + 1
            if left_end > start or end > right:
                raise SimulationError(
                    f"volume {self.name}: cannot free blocks [{start}, {end}), "
                    "they overlap free space"
                )
            count = end - start
            if left_end == start:
                if end == right:
                    counts[i - 1] += count + counts[i]
                    del starts[i]
                    del counts[i]
                else:
                    counts[i - 1] += count
            elif end == right:
                starts[i] = start
                counts[i] += count
            else:
                starts.insert(i, start)
                counts.insert(i, count)
            self._free_total += count

    def largest_free_extent(self) -> int:
        """Size in blocks of the largest contiguous free run."""
        return max(self._counts, default=0)

    # -- file operations -----------------------------------------------------------------
    def create_file(
        self,
        path: str,
        size: int,
        when: float,
        content_id: int | None = None,
        fragments: int = 1,
        spread_seed: int | None = None,
    ) -> SimFile:
        """Create a file of ``size`` bytes; logs a journal record.

        ``size`` must be an int (not a float or bool) of at least 0, checked
        before anything changes: a float size would plan reads the disk
        rejects, and a negative one would own blocks it never reads.
        """
        if not (size.__class__ is int and 0 <= size):
            raise SimulationError(f"file size must be a non-negative int, got {size!r}")
        if path in self._by_path:
            raise SimulationError(f"file {path!r} already exists on {self.name}")
        blocks = max(1, -(-size // self.block_size))
        extents = self.allocate(blocks, fragments=fragments, spread_seed=spread_seed)
        file_id = self._next_file_id
        self._next_file_id += 1
        if content_id is None:
            content_id = file_id  # Unique content by default.
        f = SimFile(file_id, path, size, extents, content_id, when)
        self._files[file_id] = f
        self._by_path[path] = file_id
        self._log(file_id, "create", when)
        return f

    def modify_file(self, file_id: int, when: float, new_content_id: int | None = None) -> None:
        """Mark a file's contents changed; logs a journal record.

        Modifying a SIS-merged file breaks the link copy-on-write style:
        the file gets its own freshly allocated blocks again.  If the
        volume cannot hold them, the error propagates and the file keeps
        its link.
        """
        f = self.file(file_id)
        if f.sis_link is not None:
            blocks = max(1, -(-f.size // self.block_size))
            f.extents = self.allocate(blocks, fragments=1)
            self._unlink(f.sis_link)
            f.sis_link = None
        f.mtime = when
        if new_content_id is not None:
            f.content_id = new_content_id
        self._log(file_id, "modify", when)

    def delete_file(self, file_id: int, when: float) -> None:
        """Delete a file, freeing its blocks; logs a journal record.

        A keeper that other files still link to holds their only copy, so
        deleting it is refused and nothing changes.
        """
        f = self.file(file_id)
        if file_id in self._links:
            raise SimulationError(
                f"file {file_id} is the keeper of {self._links[file_id]} linked files"
            )
        if f.sis_link is not None:
            self._unlink(f.sis_link)
        self.free(f.extents)
        del self._files[file_id]
        del self._by_path[f.path]
        self._log(file_id, "delete", when)

    def merge_duplicate(self, file_id: int, into_file_id: int, when: float) -> int:
        """SIS merge: replace a duplicate with a link to the common store.

        Frees the duplicate's blocks and records the link.  Returns the
        number of blocks reclaimed.  Both files must have equal content,
        and the keeper must hold its own blocks: merging a file into
        itself or into a linked file would free the only copy.
        """
        dup = self.file(file_id)
        keeper = self.file(into_file_id)
        if dup.content_id != keeper.content_id:
            raise SimulationError(
                f"files {file_id} and {into_file_id} are not duplicates"
            )
        if file_id == into_file_id:
            raise SimulationError(f"cannot merge file {file_id} into itself")
        if keeper.sis_link is not None:
            raise SimulationError(
                f"keeper {into_file_id} is itself linked to {keeper.sis_link}"
            )
        if dup.sis_link is not None:
            return 0
        reclaimed = dup.blocks
        self.free(dup.extents)
        dup.extents = []
        dup.sis_link = into_file_id
        self._links[into_file_id] = self._links.get(into_file_id, 0) + 1
        self._log(file_id, "merge", when)
        return reclaimed

    def _unlink(self, keeper_id: int) -> None:
        """Count one fewer file linked to ``keeper_id``."""
        left = self._links[keeper_id] - 1
        if left:
            self._links[keeper_id] = left
        else:
            del self._links[keeper_id]

    # -- I/O planning -------------------------------------------------------------------------
    def read_plan(self, file_id: int, chunk_bytes: int = 65536) -> list[tuple[int, int]]:
        """(disk block, nbytes) operations needed to read the whole file.

        One operation per contiguous chunk, capped at ``chunk_bytes`` — the
        shape of a real buffered read loop.  SIS links read through to the
        common-store file.
        """
        f = self.file(file_id)
        if f.sis_link is not None:
            return self.read_plan(f.sis_link, chunk_bytes)
        return self._chunk_plan(f.extents, f.size, chunk_bytes)

    def relocation_plan(
        self, file_id: int, chunk_bytes: int = 65536
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[Extent]] | None:
        """Defragmentation plan for one file.

        Returns ``(reads, writes, new_extents)`` — the read operations for
        the current layout, the write operations into a fresh contiguous
        allocation, and the new extents to commit afterwards with
        :meth:`commit_relocation`.  Returns ``None`` when the file is
        already contiguous or no contiguous free run is large enough.
        """
        f = self.file(file_id)
        if f.fragments <= 1 or f.sis_link is not None:
            return None
        try:
            target = self._allocate_piece(f.blocks, None)
        except SimulationError:
            return None  # No free run holds the whole file.
        new_extents = [target]
        reads = self._chunk_plan(f.extents, f.size, chunk_bytes)
        writes = self._chunk_plan(new_extents, f.size, chunk_bytes)
        return reads, writes, new_extents

    def _chunk_plan(
        self, extents: list[Extent], size: int, chunk_bytes: int
    ) -> list[tuple[int, int]]:
        """(disk block, nbytes) chunks covering ``size`` bytes of ``extents``.

        Each chunk stays inside one extent and holds at most
        ``chunk_bytes`` (at least one block); the last one ends at
        ``size``.  The comparisons are ``min`` written out, so ties pick
        the same operand and the values match it exactly.
        """
        block_size = self.block_size
        chunk_blocks = chunk_bytes // block_size
        if chunk_blocks < 1:
            chunk_blocks = 1
        chunk_size = chunk_blocks * block_size
        base = self.start_block
        remaining = size
        ops: list[tuple[int, int]] = []
        append = ops.append
        for start, count in extents:
            if remaining <= 0:
                break
            block = base + start
            end = block + count
            while block < end and remaining > 0:
                run = end - block
                if run < chunk_blocks:
                    nbytes = run * block_size
                else:
                    run = chunk_blocks
                    nbytes = chunk_size
                if remaining < nbytes:
                    nbytes = remaining
                append((block, nbytes))
                remaining -= nbytes
                block += run
        return ops

    def commit_relocation(self, file_id: int, new_extents: list[Extent], when: float) -> None:
        """Finish a relocation: free old extents, install the new layout."""
        f = self.file(file_id)
        self.free(f.extents)
        f.extents = new_extents
        self._log(file_id, "relocate", when)

    def abort_relocation(self, new_extents: list[Extent]) -> None:
        """Roll back a relocation plan whose I/O never completed."""
        self.free(new_extents)


def populate_volume(
    volume: Volume,
    rng: random.Random,
    file_count: int,
    when: float = 0.0,
    size_range: tuple[int, int] = (8 * 1024, 1024 * 1024),
    fragment_range: tuple[int, int] = (1, 12),
    duplicate_fraction: float = 0.0,
    path_prefix: str = "data",
    age: bool = True,
) -> list[SimFile]:
    """Fill a volume with an aged directory tree.

    ``duplicate_fraction`` of the files duplicate the content of an earlier
    file (the Groveler's prey); fragment counts are uniform over
    ``fragment_range`` (the defragmenter's prey).

    With ``age`` (the default), a same-sized filler file is created after
    each real file and all fillers are deleted at the end — the classic
    create/delete interleaving of file-system aging (cf. Smith & Seltzer,
    the paper's citation 24).  This spreads files uniformly over the
    occupied region, so access-time statistics are stationary across the
    directory tree: an application walking the files sees the same ideal
    progress rate at the start and the end of its pass, which is the
    property the paper's fixed workloads have.
    """
    files: list[SimFile] = []
    fillers: list[SimFile] = []
    for i in range(file_count):
        size = rng.randint(*size_range)
        fragments = rng.randint(*fragment_range)
        content_id: int | None = None
        if files and rng.random() < duplicate_fraction:
            content_id = rng.choice(files).content_id
        f = volume.create_file(
            f"{path_prefix}/dir{i % 16:02d}/file{i:05d}",
            size,
            when=when,
            content_id=content_id,
            fragments=fragments,
            spread_seed=rng.randrange(1 << 30),
        )
        files.append(f)
        if age:
            filler = volume.create_file(
                f"{path_prefix}/__filler{i:05d}",
                rng.randint(*size_range),
                when=when,
                fragments=1,
            )
            fillers.append(filler)
    for filler in fillers:
        volume.delete_file(filler.file_id, when)
    return files
