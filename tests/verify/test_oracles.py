"""Differential oracles: clean on the real code, loud on sabotaged code."""

from __future__ import annotations

import pytest

from repro.core.signtest import SignTest
from repro.simos.engine import Engine
from repro.simos.wheel import WheelEngine
from repro.verify.oracles import (
    chain_rng_oracle,
    engine_oracle,
    parallel_oracle,
    signtest_oracle,
    wheel_oracle,
)
from repro.verify.reference import (
    ReferenceEngine,
    ReferenceWheel,
    reference_good_threshold,
    reference_poor_threshold,
)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_signtest_oracle_clean(seed):
    result = signtest_oracle(seed)
    assert result.ok, result.mismatches[:3]
    assert result.cases > 100


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_engine_oracle_clean(seed):
    result = engine_oracle(seed)
    assert result.ok, result.mismatches[:3]
    assert result.cases > 50


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wheel_oracle_clean(seed):
    result = wheel_oracle(seed)
    assert result.ok, result.mismatches[:3]
    assert result.cases > 50


def test_parallel_oracle_clean():
    result = parallel_oracle(1)
    assert result.ok, result.mismatches


@pytest.mark.parametrize("seed", [1, 2])
def test_chain_rng_oracle_clean(seed):
    result = chain_rng_oracle(seed)
    assert result.ok, result.mismatches


def test_reference_thresholds_match_known_values():
    # n=10, alpha=0.05: P[X >= 9] = 11/1024 ≈ 0.0107 <= 0.05 but
    # P[X >= 8] = 56/1024 ≈ 0.0547 > 0.05, so the poor threshold is 9.
    assert reference_poor_threshold(10, 0.05) == 9
    # The fair-coin statistic is symmetric: the good threshold mirrors
    # it at n - 9 = 1.
    assert reference_good_threshold(10, 0.05) == 1
    # No decidable region at n = 0: both sentinels.
    assert reference_poor_threshold(0, 0.05) == 1  # n+1 == "impossible"
    assert reference_good_threshold(0, 0.05) == -1


class _BrokenSignTest(SignTest):
    """Sabotage: drops every 50th sample on the floor."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._seen = 0

    def add_sample(self, below):
        self._seen += 1
        if self._seen % 50 == 0:
            return None
        return super().add_sample(below)


def test_signtest_oracle_detects_sabotage():
    result = signtest_oracle(1, make_test=_BrokenSignTest)
    assert not result.ok
    assert any("verdict" in m.case or "window" in m.case for m in result.mismatches)


class _DriftingEngine(Engine):
    """Sabotage: the clock silently drifts ahead on every step."""

    def step(self):
        fired = super().step()
        self.now += 0.001
        return fired


def test_engine_oracle_detects_sabotage():
    result = engine_oracle(1, make_engine=_DriftingEngine)
    assert not result.ok


class _MisplacingWheel(WheelEngine):
    """Sabotage: beyond-L0-horizon posts land one tick late."""

    def post_after(self, delay, fn, *args):
        if delay > 2.0:
            delay += 1.0 / 128.0
        super().post_after(delay, fn, *args)


class _LossyWheel(WheelEngine):
    """Sabotage: silently drops every 13th cancellable schedule."""

    def __init__(self):
        super().__init__()
        self._count = 0

    def call_after(self, delay, fn, *args):
        self._count += 1
        if self._count % 13 == 0:
            # Still hand back a handle, as the real engine would.
            handle = super().call_after(delay, lambda: None)
            handle.cancel()
            return handle
        return super().call_after(delay, fn, *args)


@pytest.mark.parametrize("broken", [_MisplacingWheel, _LossyWheel])
def test_wheel_oracle_detects_sabotage(broken):
    assert any(not wheel_oracle(seed, make_engine=broken).ok for seed in (1, 2, 3))


def test_parallel_oracle_is_deterministic_across_runs():
    first = parallel_oracle(2)
    second = parallel_oracle(2)
    assert first.ok and second.ok
    assert first.cases == second.cases


def test_reference_engine_matches_contract_directly():
    fast, ref = Engine(), ReferenceEngine()
    for engine in (fast, ref, WheelEngine(), ReferenceWheel()):
        fired = []
        engine.call_after(1.0, fired.append, "a")
        handle = engine.call_after(2.0, fired.append, "b")
        engine.call_after(3.0, fired.append, "c")
        handle.cancel()
        engine.run(until=5.0)
        assert fired == ["a", "c"]
        assert engine.now == 5.0
        assert engine.pending == 0
