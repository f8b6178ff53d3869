"""End-to-end chaos scenarios: every one must pass, deterministically."""

import warnings

import pytest

from repro.core.errors import FaultError
from repro.faults.scenarios import SCENARIOS, run_scenario

SEEDS = (1, 2, 3)


def _run(name, seed):
    with warnings.catch_warnings():
        # flaky-sink deliberately trips the FanoutSink isolation warning.
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_scenario(name, seed=seed)


class TestRegistry:
    def test_expected_scenarios_present(self):
        assert set(SCENARIOS) == {
            "torn-target-store",
            "clock-jump",
            "stalled-thread",
            "crash-mid-suspension",
            "flaky-sink",
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(FaultError):
            run_scenario("meteor-strike")


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
class TestScenarios:
    def test_scenario_passes(self, name, seed):
        report = _run(name, seed)
        failed = [check for check, ok in report.checks if not ok]
        assert report.ok, f"{name} seed={seed} failed checks: {failed}"
        assert report.name == name
        assert report.seed == seed
        # Every scenario must show the fault AND the regulator's reaction.
        assert report.injected or report.anomalies
        assert report.recoveries or report.anomalies
        assert report.testpoints > 0


@pytest.mark.slow
class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_same_fingerprint(self, name):
        a = _run(name, 1)
        b = _run(name, 1)
        assert a.fingerprint == b.fingerprint
        assert a.testpoints == b.testpoints
        assert a.injected == b.injected

    def test_different_seeds_differ(self):
        a = _run("torn-target-store", 1)
        b = _run("torn-target-store", 2)
        assert a.fingerprint != b.fingerprint


class TestReport:
    def test_as_dict_is_json_shaped(self):
        report = _run("flaky-sink", 1)
        data = report.as_dict()
        assert data["name"] == "flaky-sink"
        assert isinstance(data["checks"], list)
        assert all(set(c) == {"check", "ok"} for c in data["checks"])
        assert isinstance(data["injected"], list)
