"""BeNice for real POSIX processes: SIGSTOP is our SuspendThread.

The paper's BeNice regulates an unmodified Windows application by polling
its performance counters and suspending its threads through the debug
interface (section 7.2).  This module is the working Unix equivalent:

* the *target* is any OS process that publishes cumulative progress
  counters somewhere the regulator can read — by default a small JSON file
  (`{"counter_name": number, ...}`), the least-common-denominator stand-in
  for a performance-counter registry;
* *suspension* is ``SIGSTOP``/``SIGCONT``, which stops an arbitrary
  process at an arbitrary point exactly as ``SuspendThread`` does — with
  the same caveat the paper states: the target may be holding a lock when
  frozen (priority inversion, no general fix).

Usage::

    benice = PosixBeNice(
        pid=target_pid,
        read_counters=JsonFileCounters("/run/myapp/progress.json"),
        config=MannersConfig(...),
    )
    benice.start()          # runs its own monitor thread
    ...
    benice.stop()

Like everything in this package, the regulation logic itself is the shared
:class:`~repro.core.controller.ThreadRegulator`; this module only supplies
the polling and the freezing.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.benice.polling import AdaptivePoller
from repro.core.config import DEFAULT_CONFIG, MannersConfig
from repro.core.controller import ThreadRegulator
from repro.core.errors import MetricError, RegulationStateError
from repro.obs import lazy as obs_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["JsonFileCounters", "PosixBeNiceStats", "PosixBeNice"]


class JsonFileCounters:
    """Read cumulative counters from a JSON file the target keeps updated."""

    def __init__(self, path: str | os.PathLike[str], names: Sequence[str]) -> None:
        if not names:
            raise ValueError("at least one counter name is required")
        self._path = os.fspath(path)
        self._names = tuple(names)
        self._last: tuple[float, ...] | None = None

    @property
    def names(self) -> tuple[str, ...]:
        """The counter names, in metric order."""
        return self._names

    def __call__(self) -> tuple[float, ...]:
        """Return the current counter vector.

        A torn or missing read (the target writes concurrently) returns
        the previous values — progress simply appears at the next poll.
        """
        try:
            with open(self._path, "r", encoding="utf-8") as handle:
                data: Mapping[str, float] = json.load(handle)
            values = tuple(float(data[name]) for name in self._names)
        except (OSError, ValueError, KeyError):
            if self._last is None:
                return tuple(0.0 for _ in self._names)
            return self._last
        if self._last is not None:
            # Guard against torn writes that regress a counter.
            values = tuple(max(new, old) for new, old in zip(values, self._last))
        self._last = values
        return values


@dataclass
class PosixBeNiceStats:
    """Operating statistics of one regulator instance."""

    polls: int = 0
    suspensions: int = 0
    total_suspension_time: float = 0.0
    signal_errors: int = 0
    metric_errors: int = 0
    last_values: tuple[float, ...] = field(default_factory=tuple)


class PosixBeNice:
    """Externally regulate one OS process with SIGSTOP/SIGCONT."""

    def __init__(
        self,
        pid: int,
        read_counters: Callable[[], Sequence[float]],
        config: MannersConfig = DEFAULT_CONFIG,
        poller: AdaptivePoller | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if pid <= 0:
            raise ValueError(f"pid must be positive, got {pid}")
        self._pid = pid
        self._read = read_counters
        self._config = config
        self._poller = poller or AdaptivePoller(
            initial_interval=max(config.min_testpoint_interval, 0.3)
        )
        self._telemetry = (
            None if telemetry is None else telemetry.scoped(f"benice:{pid}")
        )
        self.regulator = ThreadRegulator(config, telemetry=self._telemetry)
        self.stats = PosixBeNiceStats()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._frozen = False

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Start the monitor thread (daemonized: it dies with the caller)."""
        if self._thread is not None:
            raise RegulationStateError("PosixBeNice already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop monitoring; always leaves the target running."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self._resume()

    def __enter__(self) -> "PosixBeNice":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def target_alive(self) -> bool:
        """Whether the target process still exists."""
        try:
            os.kill(self._pid, 0)
            return True
        except ProcessLookupError:
            return False
        except PermissionError:  # exists, owned by someone else
            return True

    # -- the monitor loop ------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set() and self.target_alive:
            if self._stop.wait(timeout=self._poller.interval):
                break
            values = tuple(self._read())
            changed = values != self.stats.last_values
            self.stats.last_values = values
            self.stats.polls += 1
            self._poller.record_poll(changed)
            try:
                decision = self.regulator.on_testpoint(time.monotonic(), 0, values)
            except MetricError as exc:
                # A garbage counter read (the target rewrote its file with
                # different keys, or published non-numeric junk) must not
                # kill the monitor thread: skip the sample and poll again.
                self.stats.metric_errors += 1
                tel = self._telemetry
                if tel is not None:
                    tel.metrics.counters.benice_metric_errors.inc()
                    tel.emit(
                        obs_events.AnomalyDetected(
                            t=tel.now,
                            src=tel.label,
                            anomaly="metric_error",
                            detail=str(exc),
                        )
                    )
                continue
            tel = self._telemetry
            if tel is not None:
                tel.metrics.counters.benice_polls.inc()
                if not changed:
                    tel.metrics.counters.benice_idle_polls.inc()
                tel.metrics.gauges.benice_poll_interval.set(self._poller.interval)
                tel.emit(
                    obs_events.BeNicePoll(
                        t=tel.now,
                        src=tel.label,
                        interval=self._poller.interval,
                        changed=changed,
                        delay=decision.delay,
                    )
                )
            if decision.delay > 0:
                self.stats.suspensions += 1
                self.stats.total_suspension_time += decision.delay
                self._freeze()
                frozen_at = time.monotonic()
                interrupted = self._stop.wait(timeout=decision.delay)
                self._resume()
                resumed = time.monotonic()
                self.regulator.mark_resumed(resumed)
                if tel is not None:
                    tel.tick(resumed)
                    tel.emit(
                        obs_events.SuspensionEnded(
                            t=resumed, src=tel.label, slept=resumed - frozen_at
                        )
                    )
                if interrupted:
                    break

    # -- freezing -----------------------------------------------------------------------
    def _freeze(self) -> None:
        try:
            os.kill(self._pid, signal.SIGSTOP)
            self._frozen = True
        except (ProcessLookupError, PermissionError):
            self.stats.signal_errors += 1

    def _resume(self) -> None:
        if not self._frozen:
            return
        try:
            os.kill(self._pid, signal.SIGCONT)
        except (ProcessLookupError, PermissionError):
            self.stats.signal_errors += 1
        finally:
            self._frozen = False
