"""BeNice: external regulation of unmodified applications (section 7.2).

"BeNice monitors an application's progress via Windows NT performance
counters ... BeNice suspends an application by suspending its threads.  To
obtain handles to the application's threads, BeNice uses the Windows
program debugging interface ... BeNice periodically suspends a process's
threads, polls its performance counters, calls the MS Manners testpoint
function, and resumes the threads."

The simulated BeNice is itself a process on the machine: a thread that
sleeps for the adaptive polling interval, suspends the target's threads
through the kernel's debug interface, reads the target's performance
counters, feeds them to a :class:`~repro.core.controller.ThreadRegulator`,
keeps the target suspended for any mandated delay, and resumes it.  The
brief suspend-poll-resume at every poll is what costs the target the ~1.5%
overhead visible in the paper's Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Sequence

from repro.benice.polling import AdaptivePoller
from repro.core.config import DEFAULT_CONFIG, MannersConfig
from repro.core.controller import ThreadRegulator
from repro.core.signtest import Judgment
from repro.obs import lazy as obs_events
from repro.simos.cpu import CpuPriority
from repro.simos.effects import Delay, Effect, UseCPU
from repro.simos.kernel import Kernel, SimThread
from repro.simos.perfcounters import PerfCounterRegistry
from repro.simos.trace import TestpointTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["BeNiceStats", "BeNice"]

#: CPU cost of one suspend-poll-resume cycle (debug-interface round trips).
_POLL_CPU = 0.002
#: Wall time the target's threads stay frozen during a poll, beyond the CPU
#: cost — handle acquisition and per-thread suspend/resume latency.
_POLL_FREEZE = 0.003


@dataclass
class BeNiceStats:
    """BeNice operating statistics."""

    polls: int = 0
    polls_without_progress: int = 0
    suspensions: int = 0
    total_suspension_time: float = 0.0
    final_interval: float = 0.0


class BeNice:
    """Externally regulate one unmodified simulated process."""

    def __init__(
        self,
        kernel: Kernel,
        registry: PerfCounterRegistry,
        target_process: str,
        counter_names: Sequence[str],
        target_threads: Sequence[SimThread],
        config: MannersConfig = DEFAULT_CONFIG,
        poller: AdaptivePoller | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        """Configure BeNice for one target.

        Args:
            kernel: The simulated machine (provides the debug interface).
            registry: The performance-counter namespace.
            target_process: Counter namespace of the monitored process.
            counter_names: Counters forming the progress metric set, in a
                fixed order (they become the regulator's metrics).
            target_threads: The process's threads, to suspend and resume.
            config: Regulation parameters.
            poller: Adaptive polling controller (default-configured if
                omitted).
        """
        if not counter_names:
            raise ValueError("BeNice needs at least one progress counter")
        self._kernel = kernel
        self._registry = registry
        self._process = target_process
        self._counters = tuple(counter_names)
        self._targets = tuple(target_threads)
        self._config = config
        self._poller = poller or AdaptivePoller(
            initial_interval=max(config.min_testpoint_interval, 0.3)
        )
        self._telemetry = (
            None if telemetry is None else telemetry.scoped(f"benice:{target_process}")
        )
        self.regulator = ThreadRegulator(config, telemetry=self._telemetry)
        self.stats = BeNiceStats()
        self.trace = TestpointTrace()
        self.thread: SimThread | None = None

    def spawn(self, start_after: float = 0.0) -> SimThread:
        """Start the BeNice monitor thread."""
        self.thread = self._kernel.spawn(
            f"benice:{self._process}",
            self._body(),
            priority=CpuPriority.NORMAL,
            process="benice",
            start_after=start_after,
        )
        return self.thread

    # -- monitor loop -----------------------------------------------------------------
    def _body(self) -> Generator[Effect, object, None]:
        last_values: tuple[float, ...] | None = None
        while any(t.alive for t in self._targets):
            yield Delay(self._poller.interval)
            # Freeze the target, poll, decide.
            for t in self._targets:
                self._kernel.suspend_thread(t)
            yield UseCPU(_POLL_CPU)
            yield Delay(_POLL_FREEZE)
            values = tuple(
                self._registry.read(self._process, name) for name in self._counters
            )
            changed = last_values is None or values != last_values
            last_values = values
            self.stats.polls += 1
            if not changed:
                self.stats.polls_without_progress += 1
            self._poller.record_poll(changed)
            decision = self.regulator.on_testpoint(self._kernel.now, 0, values)
            tel = self._telemetry
            if tel is not None:
                tel.metrics.counters.benice_polls.inc()
                if not changed:
                    tel.metrics.counters.benice_idle_polls.inc()
                tel.metrics.gauges.benice_poll_interval.set(self._poller.interval)
                tel.emit(
                    obs_events.BeNicePoll(
                        t=self._kernel.now,
                        src=tel.label,
                        interval=self._poller.interval,
                        changed=changed,
                        delay=decision.delay,
                    )
                )
            if decision.processed:
                self.trace.record(
                    self._kernel.now,
                    decision.duration,
                    decision.target_duration,
                    decision.judgment,
                    decision.delay,
                )
            if decision.delay > 0:
                # Poor progress: keep the target frozen for the backoff.
                self.stats.suspensions += 1
                self.stats.total_suspension_time += decision.delay
                yield Delay(decision.delay)
                if tel is not None:
                    tel.tick(self._kernel.now)
                    tel.emit(
                        obs_events.SuspensionEnded(
                            t=self._kernel.now, src=tel.label, slept=decision.delay
                        )
                    )
            for t in self._targets:
                self._kernel.resume_thread(t)
        self.stats.final_interval = self._poller.interval

    @property
    def judgments(self) -> tuple[Judgment, ...]:
        """Sequence of judgments from the trace (diagnostics)."""
        return tuple(
            r.judgment for r in self.trace.records if r.judgment is not None
        )
