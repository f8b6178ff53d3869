"""The trace summarizer: timeline rendering and file round-trips."""

from __future__ import annotations

import pytest

from repro.core.errors import MannersError
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import read_events, summarize, summarize_file
from repro.obs.sinks import JsonlSink, MemorySink
from repro.obs.telemetry import Telemetry

from .test_events import SAMPLE_EVENTS
from .test_telemetry_regulator import run_episode


@pytest.fixture(scope="module")
def episode_events():
    sink = MemorySink()
    run_episode(Telemetry(sink=sink, metrics=MetricsRegistry()))
    return sink.events


class TestSummarize:
    def test_empty_trace(self):
        assert summarize([]) == "empty trace (no events)"

    def test_episode_timeline_shows_full_regulation_cycle(self, episode_events):
        report = summarize(episode_events)
        # The scripted episode walks bootstrap -> good -> poor/backoff -> reset,
        # and every leg must be visible in the timeline.
        assert "phase -> bootstrap" in report
        assert "phase -> regulating" in report
        assert "GOOD (" in report
        assert "POOR (" in report
        assert "SUSPEND 1.00s (backoff level 0)" in report
        assert "SUSPEND 2.00s (backoff level 1)" in report
        assert "RESET backoff" in report

    def test_census_and_aggregates(self, episode_events):
        report = summarize(episode_events)
        assert "event census:" in report
        assert "testpoint" in report
        assert "processed testpoints" in report
        assert "duty cycle" in report
        assert "suspensions imposed" in report

    def test_backoff_plot_present_with_enough_suspensions(self, episode_events):
        assert "suspension delay over time (s)" in summarize(episode_events)

    def test_sample_events_render_without_error(self):
        # Every event type must be representable (census at minimum).
        report = summarize(SAMPLE_EVENTS)
        assert f"trace: {len(SAMPLE_EVENTS)} events" in report
        assert "EVICTED" in report
        assert "benice polls" in report
        assert "discards" in report

    def test_long_timeline_is_elided(self):
        from repro.obs.events import JudgmentIssued

        events = [
            JudgmentIssued(t=float(i), judgment="good", samples=8, below=1)
            for i in range(200)
        ]
        report = summarize(events)
        assert "rows elided" in report
        # First and last rows survive the elision.
        assert "0.0s" in report
        assert "199.0s" in report


class TestFileRoundTrip:
    def test_summarize_file_matches_in_memory(self, tmp_path, episode_events):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            for event in episode_events:
                sink.emit(event)
        assert read_events(path) == episode_events
        assert summarize_file(path) == summarize(episode_events)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(SAMPLE_EVENTS[1])
        path.write_text(path.read_text() + "\n\n")
        assert len(read_events(path)) == 1

    def test_corrupt_line_reports_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"k": "judgment", "v": 1, "t": 0.0}\nnot json\n')
        with pytest.raises(MannersError, match=":2:"):
            read_events(path)

    @pytest.mark.parametrize(
        "record",
        ['"just a string"', "[1, 2]", '{"v": 1, "k": "anomaly"}'],
        ids=["string", "list", "anomaly-without-fields"],
    )
    def test_wrong_shaped_record_reports_location(self, tmp_path, record):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"k": "judgment", "v": 1, "t": 0.0}\n' + record + "\n")
        with pytest.raises(MannersError, match=":2:"):
            read_events(path)

    @pytest.mark.parametrize(
        "command, code",
        [(["summarize"], 2), (["export"], 2), (["explain", "w1"], 1)],
        ids=["summarize", "export", "explain"],
    )
    def test_cli_reports_wrong_shaped_record(self, tmp_path, capsys, command, code):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        path.write_text('[1, 2]\n{"v": 1, "k": "anomaly"}\n')
        argv = ["obs", command[0], str(path), *command[1:]]
        assert main(argv) == code
        assert f"error: {path}:1:" in capsys.readouterr().err
