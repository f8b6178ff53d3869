"""Single-call application facade (paper section 7.1).

The paper packages MS Manners as a library whose entire interface is one
function::

    Testpoint(int index, int count, int *metrics);

:class:`Manners` is that interface for a single regulated thread, with the
Windows-isms replaced by Python idioms: the metric count is implicit in the
sequence length, and instead of blocking internally the call returns the
number of seconds the caller must pause (0.0 to continue immediately).  The
blocking variants — which *do* sleep, coordinate multiple threads through a
supervisor, and share the machine with other regulated processes through a
superintendent — live in :mod:`repro.realtime` (wall clock) and
:mod:`repro.simos.sim_manners` (simulated clock); both are thin shells over
the same components this facade wires together.

The facade also handles target persistence: given an application identity
and a :class:`~repro.core.persistence.TargetStore`, targets are loaded at
construction (skipping bootstrap on restart; a snapshot the regulator
rejects raises there) and saved periodically and at :meth:`Manners.close`.
A periodic save the store gives up on is skipped, not raised.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.clock import Clock, MonotonicClock
from repro.core.config import DEFAULT_CONFIG, MannersConfig, check_interval
from repro.core.controller import TestpointDecision, ThreadRegulator
from repro.core.errors import PersistenceError
from repro.core.persistence import TargetStore

__all__ = ["Manners"]


class Manners:
    """Progress-based regulation for one thread, one call at a time.

    Example::

        manners = Manners()
        for item in work:
            process(item)
            done += 1
            pause = manners.testpoint([done])
            if pause > 0.0:
                time.sleep(pause)

    Applications with sequential phases pass a different ``index`` per phase;
    applications progressing along several dimensions concurrently pass all
    metrics in one call (section 4.4).
    """

    #: Default interval between automatic target saves, in clock seconds.
    DEFAULT_SAVE_INTERVAL = 300.0

    __slots__ = ("_regulator", "_store", "_app_id", "_clock", "_save_interval", "_last_save")

    def __init__(
        self,
        config: MannersConfig = DEFAULT_CONFIG,
        clock: Clock | None = None,
        app_id: str | None = None,
        store: TargetStore | None = None,
        save_interval: float = DEFAULT_SAVE_INTERVAL,
    ) -> None:
        if (app_id is None) != (store is None):
            raise ValueError("app_id and store must be provided together")
        self._clock = clock or MonotonicClock()
        self._regulator = ThreadRegulator(config)
        self._app_id = app_id
        self._store = store
        self._save_interval = check_interval("save_interval", save_interval)
        self._last_save = self._clock.now()
        if store is not None and app_id is not None:
            persisted = store.load(app_id)
            if persisted is not None:
                self._regulator.import_state(persisted)

    # -- the interface -------------------------------------------------------------
    def testpoint(self, metrics: Sequence[float], index: int = 0) -> float:
        """Report cumulative progress; return seconds the caller must pause.

        Args:
            metrics: Cumulative progress counters for metric set ``index``
                (monotone non-decreasing across calls).
            index: Metric-set index; use a distinct index per execution
                phase.

        Returns:
            Seconds to pause before continuing (0.0 = proceed immediately).
        """
        return self.testpoint_detailed(metrics, index).delay

    def testpoint_detailed(
        self, metrics: Sequence[float], index: int = 0
    ) -> TestpointDecision:
        """Like :meth:`testpoint` but returning the full decision record."""
        now = self._clock.now()
        decision = self._regulator.on_testpoint(now, index, metrics)
        if (
            self._store is not None
            and decision.processed
            and now - self._last_save >= self._save_interval
        ):
            try:
                self.save_targets()
            except PersistenceError:
                # The store already retried: drop this snapshot, try again a
                # full interval later, and never fail the caller's testpoint.
                self._last_save = self._clock.now()
        return decision

    # -- persistence & lifecycle ----------------------------------------------------
    def save_targets(self) -> None:
        """Persist the current calibration (no-op without a store).

        Raises :class:`PersistenceError` when the store gives up; a periodic
        save from :meth:`testpoint` absorbs it instead.
        """
        if self._store is not None and self._app_id is not None:
            self._store.save(self._app_id, self._regulator.export_state())
            self._last_save = self._clock.now()

    def close(self) -> None:
        """Save targets one final time (call at application exit)."""
        self.save_targets()

    def __enter__(self) -> "Manners":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------------
    @property
    def regulator(self) -> ThreadRegulator:
        """The underlying per-thread regulator (for inspection/telemetry)."""
        return self._regulator
