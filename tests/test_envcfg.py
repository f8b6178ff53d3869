"""Validated REPRO_* environment parsing (repro.analysis.env).

Regression suite for the env-config bugfix sweep: ``REPRO_SCALE`` must be
finite and positive, boolean flags must be parsed case-insensitively from
one shared vocabulary, and integer knobs must treat blank values as unset
while naming the variable and the offending value on garbage.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.analysis.env import check_scale, env_flag, env_int, env_scale, parse_count
from repro.analysis.parallel import resolve_jobs
from repro.analysis.runner import trial_count

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from _util import bench_cache, bench_scale, full_run  # noqa: E402


class TestEnvFlag:
    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on", "TRUE", "Yes", "ON"])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FULL", raw)
        assert env_flag("REPRO_FULL") is True

    @pytest.mark.parametrize("raw", ["0", "false", "no", "off", "FALSE", "No", "OFF"])
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CACHE", raw)
        assert env_flag("REPRO_CACHE", default=True) is False

    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert env_flag("REPRO_CACHE", default=True) is True
        assert env_flag("REPRO_CACHE", default=False) is False

    def test_blank_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "   ")
        assert env_flag("REPRO_CACHE", default=True) is True

    @pytest.mark.parametrize("raw", ["2", "enabled", "nope", "None"])
    def test_garbage_rejected_naming_var_and_value(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CACHE", raw)
        with pytest.raises(ValueError) as excinfo:
            env_flag("REPRO_CACHE")
        assert "REPRO_CACHE" in str(excinfo.value)
        assert repr(raw) in str(excinfo.value)

    def test_bench_cache_capitalised_false_disables(self, monkeypatch):
        # Historically REPRO_CACHE=False silently *enabled* the cache
        # (only lowercase "false" was recognized).
        monkeypatch.setenv("REPRO_CACHE", "False")
        assert bench_cache() is None

    def test_bench_cache_on_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert bench_cache() is not None

    def test_full_run_capitalised_no_is_false(self, monkeypatch):
        # Historically REPRO_FULL=No counted as *true* ("No" was not in
        # the recognized falsy tuple).
        monkeypatch.setenv("REPRO_FULL", "No")
        assert full_run() is False
        monkeypatch.setenv("REPRO_FULL", "Yes")
        assert full_run() is True


class TestEnvScale:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert env_scale() == 1.0
        assert bench_scale(default=0.25) == 0.25

    def test_parses_and_strips(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "  0.05 ")
        assert bench_scale() == 0.05

    @pytest.mark.parametrize("raw", ["0", "-1", "nan", "inf", "-inf", "tiny"])
    def test_rejects_degenerate_values(self, monkeypatch, raw):
        # bench_scale() used to pass REPRO_SCALE straight to float():
        # "0" silently collapsed every workload to its minimum size and
        # "tiny" raised a bare error naming neither variable nor value.
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ValueError) as excinfo:
            bench_scale()
        assert "REPRO_SCALE" in str(excinfo.value)
        assert repr(raw) in str(excinfo.value)

    def test_blank_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "")
        assert env_scale(default=0.5) == 0.5

    def test_check_scale_validates_explicit_args(self):
        assert check_scale(0.05) == 0.05
        with pytest.raises(ValueError) as excinfo:
            check_scale(0.0, source="--scale")
        assert "--scale" in str(excinfo.value)


class TestEnvInt:
    @pytest.mark.parametrize("var,resolve", [
        ("REPRO_JOBS", lambda: resolve_jobs(None, default=1)),
        ("REPRO_TRIALS", lambda: trial_count(default=5)),
    ])
    def test_empty_string_counts_as_unset(self, monkeypatch, var, resolve):
        # REPRO_JOBS="" used to raise a bare int() ValueError that named
        # neither the variable nor the value.
        monkeypatch.setenv(var, "")
        expected = 5 if var == "REPRO_TRIALS" else 1
        assert resolve() == expected

    @pytest.mark.parametrize("var,resolve", [
        ("REPRO_JOBS", lambda: resolve_jobs(None, default=1)),
        ("REPRO_TRIALS", lambda: trial_count(default=5)),
    ])
    def test_whitespace_counts_as_unset(self, monkeypatch, var, resolve):
        monkeypatch.setenv(var, "   ")
        resolve()  # must not raise

    @pytest.mark.parametrize("var,resolve", [
        ("REPRO_JOBS", lambda: resolve_jobs(None)),
        ("REPRO_TRIALS", lambda: trial_count()),
    ])
    @pytest.mark.parametrize("raw", ["zero", "1.5", "0", "-2"])
    def test_errors_name_var_and_value(self, monkeypatch, var, resolve, raw):
        monkeypatch.setenv(var, raw)
        with pytest.raises(ValueError) as excinfo:
            resolve()
        assert var in str(excinfo.value)
        assert repr(raw) in str(excinfo.value)

    def test_padded_numbers_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", " 3 ")
        assert resolve_jobs(None) == 3

    def test_env_int_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "1")
        assert env_int("REPRO_TRIALS") == 1

    def test_parse_count_names_argument_source(self):
        with pytest.raises(ValueError) as excinfo:
            parse_count("x", "jobs")
        assert "jobs" in str(excinfo.value)
