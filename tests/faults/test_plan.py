"""FaultPlan/FaultSpec: validation, ordering, deterministic generation."""

import pytest

from repro.core.errors import FaultError
from repro.faults.plan import KNOWN_FAULTS, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_valid_spec(self):
        spec = FaultSpec(at=5.0, kind="clock_jump", target="clock", param=60.0)
        assert spec.at == 5.0
        assert spec.kind == "clock_jump"

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(at=1.0, kind="meteor_strike")

    @pytest.mark.parametrize("at", [float("nan"), float("inf"), -1.0])
    def test_bad_time_rejected(self, at):
        with pytest.raises(FaultError):
            FaultSpec(at=at, kind="stall", target="w1")

    @pytest.mark.parametrize("param", [float("nan"), float("inf")])
    def test_non_finite_param_rejected(self, param):
        with pytest.raises(FaultError):
            FaultSpec(at=1.0, kind="clock_jump", param=param)


class TestFaultPlan:
    def test_specs_sorted_by_time(self):
        plan = FaultPlan(
            [
                FaultSpec(at=9.0, kind="stall", target="w1"),
                FaultSpec(at=1.0, kind="clock_jump", param=60.0),
                FaultSpec(at=5.0, kind="disk_fail", target="C", param=1.0),
            ]
        )
        assert [s.at for s in plan] == [1.0, 5.0, 9.0]
        assert len(plan) == 3

    def test_of_kind_filters(self):
        plan = FaultPlan(
            [
                FaultSpec(at=1.0, kind="stall", target="w1"),
                FaultSpec(at=2.0, kind="unstall", target="w1"),
                FaultSpec(at=3.0, kind="stall", target="w2"),
            ]
        )
        stalls = plan.of_kind("stall")
        assert [s.target for s in stalls] == ["w1", "w2"]

    def test_empty_plan(self):
        assert len(FaultPlan()) == 0
        assert list(FaultPlan()) == []


class TestGenerate:
    def test_same_seed_same_plan(self):
        a = FaultPlan.generate(seed=7, duration=100.0, count=8)
        b = FaultPlan.generate(seed=7, duration=100.0, count=8)
        assert a.specs == b.specs

    def test_different_seeds_differ(self):
        a = FaultPlan.generate(seed=1, duration=100.0, count=8)
        b = FaultPlan.generate(seed=2, duration=100.0, count=8)
        assert a.specs != b.specs

    def test_faults_land_inside_duration(self):
        plan = FaultPlan.generate(seed=3, duration=50.0, count=10)
        for spec in plan:
            assert 0.0 < spec.at < 50.0 + 15.0  # paired unstalls may trail
            assert spec.kind in KNOWN_FAULTS

    def test_stalls_are_paired_with_unstalls(self):
        plan = FaultPlan.generate(
            seed=5, duration=100.0, count=12, kinds=("stall",)
        )
        assert len(plan.of_kind("stall")) == len(plan.of_kind("unstall")) == 12

    def test_bad_arguments_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.generate(seed=1, count=0)
        with pytest.raises(FaultError):
            FaultPlan.generate(seed=1, duration=0.0)
        with pytest.raises(FaultError):
            FaultPlan.generate(seed=1, kinds=("meteor_strike",))
        with pytest.raises(FaultError):
            FaultPlan.generate(seed=1, kinds=())
