"""Host-speed reference loop and the normalization arithmetic.

The reference is fixed pure-Python work in two parts, timed separately:

* a ring walk: it follows a shuffled linked ring of 400,000 small objects
  and keeps a small heap.  Each call takes the next 60,000 steps from where
  the last call stopped, so successive calls sweep the whole ring (a
  working set far larger than the CPU caches, like the simulator's object
  graph) and no call finds its nodes cached by the one before.  It moves
  with cache and memory-bandwidth pressure from other tenants.
* an event loop: 128 generator threads resumed in time order from a heap,
  each step doing dict, list and attribute work, as the simulator's engine
  and thread bodies do.  It moves with the interpreter's own speed.

The reference time is the geometric mean of the two.  On a shared 2-vCPU
host, the simulator slowed more than the event loop and less than the ring
walk when the host slowed (log-log slopes of 0.67 to 0.75 and 1.05 to 1.1
against the two over 12-run sets), and the geometric mean tracked both the
Fig workloads and testpoint_loop closest.  Nothing here imports from
``repro``, so no change to the program can move it.

The benchmark times the reference before and after every trial (and every
cold start) and reports each host time multiplied by

    NOMINAL_REF_S / (mean of the two reference times around it)

so a host that is slower or faster while a run is going reports the same
normalized figures.
"""

from __future__ import annotations

import heapq
import math
import random
import time

#: Typical reference time on the host the nominal values were taken on (a
#: 2-vCPU x86-64 VM, CPython 3.11).  Normalized host times read as that
#: host's seconds.
NOMINAL_REF_S = 0.0175

#: Objects in the ring, and ring steps per call.
RING_NODES = 400_000
RING_STEPS = 60_000
#: Generator threads in the event loop, and events per call.
LOOP_THREADS = 128
LOOP_EVENTS = 12_000


class _Node:
    __slots__ = ("value", "next", "hits")

    def __init__(self, value: float) -> None:
        self.value = value
        self.next: _Node | None = None
        self.hits = 0


class _Worker:
    """State of one event-loop thread."""

    __slots__ = ("wid", "steps", "acc", "recent")

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.steps = 0
        self.acc = 0.0
        self.recent: list[int] = []

    def step(self, table: dict, x: float) -> float:
        """One unit of work; returns the delay until the next."""
        self.steps += 1
        key = (self.wid * 31 + self.steps) % 509
        table[key] = table.get(key, 0.0) + x
        self.acc += x * 0.5
        if len(self.recent) > 16:
            self.recent.pop(0)
        self.recent.append(key)
        return 0.001 + (key % 7) * 0.0003


def _thread(worker: _Worker, table: dict, values: list[float]):
    i = 0
    while True:
        yield worker.step(table, values[i % len(values)])
        i += 1


class ReferenceLoop:
    """The ring (built once per process), the event loop, and their timing."""

    def __init__(self, nodes: int = RING_NODES, seed: int = 3) -> None:
        rng = random.Random(seed)
        ring = [_Node(i * 0.5) for i in range(nodes)]
        order = list(range(nodes))
        rng.shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            ring[a].next = ring[b]
        self._cursor = ring[0]
        self._ring = ring
        self._values = [rng.random() for _ in range(1024)]

    def walk(self, steps: int = RING_STEPS) -> float:
        """Walk the next ``steps`` nodes; return a checksum (keeps the work live)."""
        node = self._cursor
        acc = 0.0
        heap: list = []
        for i in range(steps):
            node.hits += 1
            acc += node.value
            node = node.next
            if not i & 7:
                heapq.heappush(heap, (acc % 97.0, i))
                if len(heap) > 256:
                    heapq.heappop(heap)
        self._cursor = node
        return acc

    def events(self, events: int = LOOP_EVENTS) -> float:
        """Run ``events`` steps of the event loop; return its final clock."""
        table: dict = {}
        heap: list = []
        for seq in range(LOOP_THREADS):
            thread = _thread(_Worker(seq), table, self._values)
            heap.append((next(thread), seq, thread))
        heapq.heapify(heap)
        seq = LOOP_THREADS
        now = 0.0
        for _ in range(events):
            now, _, thread = heapq.heappop(heap)
            heapq.heappush(heap, (now + next(thread), seq, thread))
            seq += 1
        return now

    def time(self) -> float:
        """Host seconds of the reference now: the geometric mean of its parts."""
        start = time.perf_counter()
        self.walk()
        walked = time.perf_counter()
        self.events()
        end = time.perf_counter()
        return math.sqrt((walked - start) * (end - walked))


def normalize(host_s: float, ref_s: float, nominal: float = NOMINAL_REF_S) -> float:
    """A host time rescaled by the reference time taken around it."""
    if not ref_s > 0.0:
        raise ValueError(f"reference time must be positive, got {ref_s}")
    return host_s * nominal / ref_s


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
