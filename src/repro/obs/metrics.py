"""In-process metrics registry: counters, gauges, and histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments with
point-in-time snapshots.  It is deliberately minimal — no labels, no
exposition formats, no background threads — because its job is to make a
regulation run *inspectable* (testpoints/sec, duty cycle, suspension-time
distribution, sign-test verdict counts, calibration drift) at near-zero
cost on the enabled path and literally-one-branch cost when telemetry is
absent (the instrumented components then never touch the registry at all).

All instruments are get-or-create by name, so independent components can
contribute to the same counter without coordination.  Per-testpoint emit
sites reach them as attributes (``registry.counters.testpoints.inc()``,
``registry.histograms.testpoint_duration.observe(...)``), which looks each
name up once per registry instead of once per update.
Snapshots are plain dicts ready for ``json.dumps``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "TICK_LATENCY_BUCKETS",
    "RATE_BUCKETS",
    "to_prometheus",
]

#: Default histogram bucket upper bounds (seconds): geometric, spanning the
#: regulator's dynamic range from the lightweight gate to the suspension cap.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0,
    16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
)

#: Buckets for engine tick latency (wall seconds per fired-event batch):
#: sub-microsecond through one second, geometric.
TICK_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)

#: Buckets for progress-rate distributions (progress units per second):
#: the calibrated targets in the shipped scenarios span roughly 1..1e4/s.
RATE_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Buckets of the histograms that ``registry.histograms.<name>`` creates
#: with other than :data:`DEFAULT_BUCKETS`.
_NAMED_BUCKETS: dict[str, tuple[float, ...]] = {
    "progress_rate": RATE_BUCKETS,
    "engine_tick_latency": TICK_LATENCY_BUCKETS,
}


class Counter:
    """Monotone accumulator (accepts float increments, e.g. seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} increment must be >= 0")
        self.value += amount


class Gauge:
    """Last-value-wins instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max and quantile estimates."""

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.name = name
        self.bounds = bounds
        #: counts[i] observes values <= bounds[i]; the last slot is +inf.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Fold one observation into the histogram."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float | None:
        """Mean observation, or ``None`` when empty."""
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Bucket-resolution quantile estimate (upper bound of the bucket).

        Returns ``None`` when empty; the overflow bucket reports the true
        maximum observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank and n:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max
        return self.max

    def snapshot(self) -> dict:
        """JSON-safe summary of the histogram's state."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": [
                [bound, n] for bound, n in zip(self.bounds, self.counts)
            ]
            + [["+inf", self.counts[-1]]],
        }


class _Instruments:
    """Attribute access to one kind of instrument: ``view.name`` is ``lookup("name")``.

    The first access looks the instrument up, creating it exactly as the
    lookup method would; later accesses are a plain attribute read.  An
    instrument is listed in snapshots from that first access, so emit sites
    reach it only to update it.
    """

    def __init__(self, lookup: Callable[[str], object]) -> None:
        self._lookup = lookup

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        instrument = self._lookup(name)
        setattr(self, name, instrument)
        return instrument


class MetricsRegistry:
    """Flat get-or-create namespace of counters, gauges, and histograms."""

    __slots__ = ("_counters", "_gauges", "_histograms", "counters", "gauges", "histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Counters, gauges and histograms by attribute, each looked up on
        #: first use; a histogram gets its name's buckets (``progress_rate``
        #: and ``engine_tick_latency`` have their own).
        self.counters = _Instruments(self.counter)
        self.gauges = _Instruments(self.gauge)
        self.histograms = _Instruments(self._named_histogram)

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram named ``name``, created on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    def _named_histogram(self, name: str) -> Histogram:
        return self.histogram(name, _NAMED_BUCKETS.get(name, DEFAULT_BUCKETS))

    def snapshot(self) -> dict:
        """Point-in-time JSON-safe view of every instrument.

        Includes a ``derived`` section with the duty cycle (execution time
        over execution-plus-suspension time) when the standard counters are
        present.
        """
        out: dict = {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
            "derived": {},
        }
        executed = self._counters.get("execution_seconds")
        suspended = self._counters.get("suspension_seconds")
        if executed is not None and suspended is not None:
            denominator = executed.value + suspended.value
            if denominator > 0:
                out["derived"]["duty_cycle"] = executed.value / denominator
        return out

    def histogram_map(self) -> dict[str, Histogram]:
        """The live histogram instruments, by name (a copy)."""
        return dict(self._histograms)


def _prom_float(value: float) -> str:
    """Prometheus text-format float (``+Inf``/``-Inf``/``NaN`` spellings)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:
        return "NaN"
    return repr(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Counters become ``repro_<name>_total``; gauges keep their name;
    histograms expose cumulative ``_bucket{le=...}`` series plus ``_sum``
    and ``_count``, exactly as a scrape endpoint would.  Output is sorted
    by metric name, so seeded runs export byte-identical snapshots.
    """
    snap = registry.snapshot()
    lines: list[str] = []
    for name, value in snap["counters"].items():
        lines.append(f"# TYPE repro_{name}_total counter")
        lines.append(f"repro_{name}_total {_prom_float(value)}")
    for name, value in snap["gauges"].items():
        if value is None:
            continue
        lines.append(f"# TYPE repro_{name} gauge")
        lines.append(f"repro_{name} {_prom_float(value)}")
    for name, hist in sorted(registry.histogram_map().items()):
        lines.append(f"# TYPE repro_{name} histogram")
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            lines.append(
                f'repro_{name}_bucket{{le="{_prom_float(bound)}"}} {cumulative}'
            )
        cumulative += hist.counts[-1]
        lines.append(f'repro_{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"repro_{name}_sum {_prom_float(hist.total)}")
        lines.append(f"repro_{name}_count {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")
