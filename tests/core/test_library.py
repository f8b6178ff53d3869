"""The single-call Manners facade."""

from __future__ import annotations

import pytest

from repro.core.clock import ManualClock
from repro.core.errors import ConfigError, MetricError, PersistenceError
from repro.core.library import Manners
from repro.core.persistence import TargetStore
from repro.core.signtest import Judgment
from repro.faults.stores import FlakyTargetStore


def drive_manners(
    manners: Manners,
    clock: ManualClock,
    rate: float,
    steps: int,
    dt: float = 0.1,
    counter_start: float = 0.0,
):
    counter = counter_start
    pauses = []
    for _ in range(steps):
        clock.advance(dt)
        counter += rate * dt
        pause = manners.testpoint([counter])
        pauses.append(pause)
        if pause:
            clock.advance(pause)
    return pauses, counter


class TestFacade:
    def test_steady_rate_never_pauses(self, clock, fast_config):
        manners = Manners(fast_config, clock=clock)
        pauses, _ = drive_manners(manners, clock, rate=100.0, steps=150)
        assert sum(pauses) <= 2.0  # at most an occasional type-I blip

    def test_degradation_pauses(self, clock, fast_config):
        manners = Manners(fast_config, clock=clock)
        _, counter = drive_manners(manners, clock, rate=100.0, steps=100)
        pauses, _ = drive_manners(
            manners, clock, rate=20.0, steps=40, counter_start=counter
        )
        assert sum(pauses) > 0.0

    def test_detailed_decision_exposed(self, clock, fast_config):
        manners = Manners(fast_config, clock=clock)
        counter = 0.0
        seen_judgment = False
        for _ in range(200):
            clock.advance(0.1)
            counter += 10.0
            decision = manners.testpoint_detailed([counter])
            if decision.judgment is Judgment.GOOD:
                seen_judgment = True
        assert seen_judgment

    def test_app_id_requires_store(self, clock):
        with pytest.raises(ValueError):
            Manners(app_id="app")

    def test_defaults_to_monotonic_clock(self):
        manners = Manners()
        assert manners.testpoint([0.0]) == 0.0  # priming call


class TestPersistenceFlow:
    def test_targets_saved_on_close(self, clock, fast_config, tmp_path):
        store = TargetStore(tmp_path)
        with Manners(fast_config, clock=clock, app_id="app", store=store) as manners:
            drive_manners(manners, clock, rate=100.0, steps=50)
        assert store.load("app") is not None

    def test_restart_skips_bootstrap(self, fast_config, tmp_path):
        store = TargetStore(tmp_path)
        clock_a = ManualClock()
        first = Manners(fast_config, clock=clock_a, app_id="app", store=store)
        drive_manners(first, clock_a, rate=100.0, steps=100)
        first.close()

        clock_b = ManualClock()
        second = Manners(fast_config, clock=clock_b, app_id="app", store=store)
        assert not second.regulator.in_bootstrap

    def test_nan_median_scale_is_rejected_at_import(self, fast_config, tmp_path):
        # JSON NaN loads as a float; restored, every target duration was NaN
        # and the first judged testpoint raised.
        store = TargetStore(tmp_path)
        clock = ManualClock()
        with Manners(fast_config, clock=clock, app_id="app", store=store) as manners:
            drive_manners(manners, clock, rate=100.0, steps=50)
        state = dict(store.load("app"))
        state["sets"]["0"]["calibration"]["median_scale"] = float("nan")
        store.save("app", state)
        assert "NaN" in store.path_for("app").read_text()
        with pytest.raises(MetricError, match="median scale"):
            Manners(fast_config, clock=ManualClock(), app_id="app", store=store)

    def test_periodic_save(self, fast_config, tmp_path):
        store = TargetStore(tmp_path)
        clock = ManualClock()
        manners = Manners(
            fast_config, clock=clock, app_id="app", store=store, save_interval=5.0
        )
        drive_manners(manners, clock, rate=100.0, steps=100)  # 10+ seconds
        assert store.load("app") is not None  # saved without close()

    def test_failed_periodic_save_is_skipped_for_a_full_interval(self, fast_config, tmp_path):
        # The store's exhausted retries raised PersistenceError out of the
        # application's testpoint.
        store = FlakyTargetStore(tmp_path, save_retries=0, sleep=lambda s: None)
        clock = ManualClock()
        manners = Manners(
            fast_config, clock=clock, app_id="app", store=store, save_interval=5.0
        )
        store.fail_next(1)
        attempted_at = []
        for step in range(1, 25):  # a testpoint every 0.5 s for 12 s
            clock.advance(0.5)
            attempts = store.write_attempts
            manners.testpoint([50.0 * step])
            if store.write_attempts > attempts:
                attempted_at.append(clock.now())
        assert attempted_at == [5.0, 10.0]
        assert store.save_failures == 1
        assert store.load("app") is not None
        # An explicit save still reports the failure.
        store.fail_next(1)
        with pytest.raises(PersistenceError):
            manners.save_targets()

    @pytest.mark.parametrize("interval", [0.0, -5.0, float("nan"), float("inf")])
    def test_save_interval_must_be_finite_and_positive(self, fast_config, tmp_path, interval):
        # NaN or inf never saved periodically; zero saved on every testpoint.
        with pytest.raises(ConfigError, match="save_interval"):
            Manners(
                fast_config, app_id="app", store=TargetStore(tmp_path),
                save_interval=interval,
            )
