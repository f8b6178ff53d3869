"""The command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time

import pytest

from repro.cli import main


class TestInfo:
    def test_info_prints_defaults(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out
        assert "min samples to condemn" in out
        assert "5" in out

    def test_module_entrypoint(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "MS Manners" in result.stdout

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


@pytest.fixture(scope="module")
def figures_run(tmp_path_factory):
    """One traced ``figures`` run: (exit code, output directory, stdout).

    Regenerating fig7-10 takes seconds, so the tests that only read the
    outputs share this run.
    """
    out_dir = tmp_path_factory.mktemp("figures")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(
            [
                "figures",
                "--out", str(out_dir),
                "--scale", "0.15",
                "--hours", "2",
                "--trace-out", str(out_dir / "trace.jsonl"),
                "--metrics-out", str(out_dir / "metrics.json"),
            ]
        )
    return code, out_dir, stdout.getvalue()


class TestFigures:
    def test_writes_all_tsvs(self, figures_run):
        code, out_dir, _ = figures_run
        assert code == 0
        for name in (
            "fig7_duty.tsv",
            "fig8_progress.tsv",
            "fig9_isolation.tsv",
            "fig10_calibration.tsv",
        ):
            path = out_dir / name
            assert path.exists(), name
            lines = path.read_text().splitlines()
            assert len(lines) >= 2  # header + data
            assert "\t" in lines[0]


class TestObsSummarize:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.sinks import JsonlSink
        from repro.obs.telemetry import Telemetry

        from .obs.test_telemetry_regulator import run_episode

        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            run_episode(Telemetry(sink=sink, metrics=MetricsRegistry()))
        return path

    def test_summarize_prints_regulation_timeline(self, trace_path, capsys):
        assert main(["obs", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "regulation timeline:" in out
        assert "SUSPEND" in out
        assert "RESET backoff" in out

    def test_missing_trace_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: no such trace file" in captured.err

    def test_corrupt_trace_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["obs", "summarize", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_trace_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", "summarize", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trace is empty" in captured.err

    def test_truncated_trace_is_an_error(self, trace_path, capsys):
        clipped = trace_path.with_name("clipped.jsonl")
        clipped.write_bytes(trace_path.read_bytes()[:-20])
        assert main(["obs", "summarize", str(clipped)]) == 2
        assert "appears truncated" in capsys.readouterr().err

    def test_percentile_section_in_summary(self, trace_path, capsys):
        assert main(["obs", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "percentiles (bucket resolution):" in out
        assert "p99<=" in out


class TestObsExplainAndExport:
    @pytest.fixture(scope="class")
    def traced_scenario(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("explain") / "trace.jsonl"
        code = main(
            [
                "--quiet", "faults", "run",
                "--scenario", "crash-mid-suspension",
                "--seed", "3",
                "--trace-out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_explain_reconstructs_a_suspension(self, traced_scenario, capsys):
        assert main(["obs", "explain", str(traced_scenario), "w1"]) == 0
        out = capsys.readouterr().out
        assert "why was 'w1' suspended" in out
        assert "judgment #" in out
        assert "threshold row n=" in out
        assert "from testpoint #" in out

    def test_explain_is_deterministic(self, traced_scenario, capsys):
        assert main(["obs", "explain", str(traced_scenario), "w1", "--at", "30"]) == 0
        first = capsys.readouterr().out
        assert main(["obs", "explain", str(traced_scenario), "w1", "--at", "30"]) == 0
        assert capsys.readouterr().out == first

    def test_explain_unknown_thread_fails_with_hint(self, traced_scenario, capsys):
        assert main(["obs", "explain", str(traced_scenario), "ghost"]) == 1
        assert "threads with suspensions" in capsys.readouterr().err

    def test_explain_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["obs", "explain", str(tmp_path / "nope.jsonl"), "w1"]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_export_prom_writes_histograms(self, traced_scenario, capsys):
        assert main(["obs", "export", str(traced_scenario), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_progress_rate histogram" in out
        assert 'le="+Inf"' in out

    def test_export_jsonl_round_trips(self, traced_scenario, tmp_path, capsys):
        from repro.obs.report import read_events

        out_path = tmp_path / "normalized.jsonl"
        code = main(
            [
                "obs", "export", str(traced_scenario),
                "--format", "jsonl", "--out", str(out_path),
            ]
        )
        assert code == 0
        assert read_events(out_path) == read_events(traced_scenario)


class TestFaultsFlightRecorder:
    def test_faults_run_dumps_recent_spans_on_fault(self, tmp_path, capsys):
        from repro.obs import events as obs_events
        from repro.obs.report import read_events
        from repro.obs.trace2 import spans_of

        dumps = tmp_path / "dumps"
        code = main(
            [
                "faults", "run",
                "--scenario", "crash-mid-suspension",
                "--seed", "3",
                "--flightrec", str(dumps),
                "--flightrec-capacity", "64",
            ]
        )
        assert code == 0
        assert "flight-recorder dump ->" in capsys.readouterr().out
        paths = sorted(dumps.iterdir())
        assert paths
        fault_dump = [p for p in paths if "fault-crash" in p.name]
        assert fault_dump
        events = read_events(fault_dump[0])
        header, body = events[0], events[1:]
        assert isinstance(header, obs_events.FlightRecorderDump)
        assert header.captured == len(body) == 64  # the N most recent events
        assert body[-1].kind == "fault"  # ... ending at the trigger, in order
        assert [e.t for e in body] == sorted(e.t for e in body)
        assert spans_of(body)


class TestQuiet:
    def test_quiet_suppresses_progress_not_results(self, tmp_path, capsys):
        code = main(
            [
                "--quiet", "figures",
                "--out", str(tmp_path),
                "--scale", "0.15",
                "--hours", "2",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""  # all figures output is progress
        assert (tmp_path / "fig7_duty.tsv").exists()

    def test_quiet_keeps_info_results(self, capsys):
        assert main(["--quiet", "info"]) == 0
        assert "alpha" in capsys.readouterr().out


class TestTraceOut:
    def test_figures_writes_trace_and_metrics(self, figures_run):
        code, out_dir, out = figures_run
        trace = out_dir / "trace.jsonl"
        metrics = out_dir / "metrics.json"
        assert code == 0
        assert trace.exists() and trace.stat().st_size > 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["testpoints"] > 0
        assert "event trace ->" in out
        assert "metrics snapshot ->" in out


@pytest.mark.slow
class TestBeNiceCommand:
    def test_regulates_real_process(self, tmp_path):
        counter = tmp_path / "progress.json"
        worker_code = (
            "import json, os, sys, time\n"
            "done = 0\n"
            "while True:\n"
            "    time.sleep(0.005)\n"
            "    done += 1\n"
            "    tmp = sys.argv[1] + '.tmp'\n"
            "    open(tmp, 'w').write(json.dumps({'items': done}))\n"
            "    os.replace(tmp, sys.argv[1])\n"
        )
        worker = subprocess.Popen([sys.executable, "-c", worker_code, str(counter)])
        try:
            deadline = time.monotonic() + 10.0
            while not counter.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "benice",
                    "--pid", str(worker.pid),
                    "--counters", str(counter),
                    "--names", "items",
                    "--duration", "3",
                    "--min-testpoint-interval", "0.01",
                ],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            assert "polls" in result.stdout
            assert worker.poll() is None  # target left running
        finally:
            worker.kill()
            worker.wait()


class TestFingerprintGate:
    """`faults run` fails when a run drifts from its recorded fingerprint."""

    @pytest.fixture
    def fp_file(self, tmp_path, monkeypatch):
        from repro.faults import scenarios

        path = tmp_path / "fingerprints.json"
        monkeypatch.setattr(scenarios, "FINGERPRINT_FILE", path)
        return path

    ARGS = ["--quiet", "faults", "run", "--scenario", "crash-mid-suspension", "--seed", "3"]

    def test_record_then_verify_round_trips(self, fp_file):
        assert main(self.ARGS + ["--record-fingerprints"]) == 0
        recorded = json.loads(fp_file.read_text())
        assert "crash-mid-suspension:3" in recorded
        assert main(self.ARGS) == 0  # reproduces bit-for-bit

    def test_unrecorded_run_still_passes(self, fp_file):
        assert main(self.ARGS) == 0

    def test_drift_from_recorded_fingerprint_fails(self, fp_file, capsys):
        fp_file.write_text(json.dumps({"crash-mid-suspension:3": "deadbeefdeadbeef"}))
        assert main(self.ARGS) == 1
        assert "fingerprint mismatch" in capsys.readouterr().err

    def test_json_output_carries_the_verdict(self, fp_file, capsys):
        fp_file.write_text(json.dumps({"crash-mid-suspension:3": "deadbeefdeadbeef"}))
        assert main(self.ARGS + ["--json"]) == 1
        body = json.loads(capsys.readouterr().out)
        assert body["fingerprint_ok"] is False
        assert body["recorded_fingerprint"] == "deadbeefdeadbeef"


class TestDaemonCli:
    def test_serve_drains_on_duration(self, capsys):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory(prefix="reprod-") as rundir:
            sock = str(Path(rundir) / "d.sock")
            code = main(
                ["daemon", "serve", "--socket", sock, "--duration", "0.5", "--fast"]
            )
            assert code == 0
            assert "daemon drained" in capsys.readouterr().out

    def test_status_against_dead_socket_fails(self, tmp_path, capsys):
        code = main(["daemon", "status", "--socket", str(tmp_path / "nope.sock")])
        assert code == 1
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_soak_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "--quiet", "daemon", "soak",
                "--scenarios", "gremlins",
                "--seeds", "1",
                "--duration", "1",
                "--workdir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "unknown soak scenario" in capsys.readouterr().err

    def test_bad_worker_spec_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "daemon", "serve",
                "--socket", str(tmp_path / "d.sock"),
                "--workers", "nocolon",
            ]
        )
        assert code == 2
        assert "not KIND:NAME" in capsys.readouterr().err


class TestNumericArguments:
    """A scale, duration, interval or seed count that means nothing is a usage error."""

    @pytest.mark.parametrize(
        "command",
        [
            "figures --scale 0",
            "figures --scale -1",
            "figures --scale nan",
            "figures --hours 0",
            "figures --hours nan",
            "profile defrag_idle --scale 0",
            "profile defrag_idle --scale -1",
            "profile defrag_idle --scale nan",
            "verify run --seeds 0",
            "verify run --seeds -1",
            "daemon soak --seeds 0",
            "daemon serve --socket d.sock --duration 0.5 --heartbeat-interval 0",
            "daemon serve --socket d.sock --duration 0.5 --heartbeat-interval nan",
            "daemon serve --socket d.sock --duration 0.5 --heartbeat-timeout nan",
            "daemon serve --socket d.sock --duration 0.5 --save-interval 0",
            "daemon serve --socket d.sock --duration 0.5 --save-interval inf",
            "daemon serve --socket d.sock --duration nan",
            "daemon serve --socket d.sock --duration inf",
            "daemon serve --socket d.sock --duration -5",
            "daemon soak --duration nan",
            "daemon soak --duration inf",
            "daemon soak --duration -5",
            "daemon soak --duration 0",
            "benice --pid 1 --counters c.json --names a --duration nan",
            "benice --pid 1 --counters c.json --names a --duration inf",
            "benice --pid 1 --counters c.json --names a --duration -5",
        ],
    )
    def test_rejected_at_parse_time(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # nothing may be written, but keep it out of the repo
        self._refuse_to_run(monkeypatch)
        argv = command.split()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"argument {argv[-2]}:" in errors[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [
            "daemon serve --socket d.sock --duration 0",
            "benice --pid 1 --counters c.json --names a --duration 0",
        ],
    )
    def test_zero_duration_accepted(self, command, monkeypatch):
        started = self._refuse_to_run(monkeypatch)
        with pytest.raises(AssertionError, match="started"):
            main(command.split())
        assert started[0].duration == 0.0

    @staticmethod
    def _refuse_to_run(monkeypatch) -> list:
        """Make starting a daemon, soak or BeNice loop fail instead of serving."""
        started = []

        def refuse(args, out):
            started.append(args)
            raise AssertionError("started")

        monkeypatch.setattr("repro.cli._cmd_daemon", refuse)
        monkeypatch.setattr("repro.cli._cmd_benice", refuse)
        return started


class TestExp:
    def test_list_names_specs(self, capsys):
        assert main(["exp", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig3_database" in out
        assert "fig5_idle" in out
        assert "ablation_backoff" in out
        assert "smoke" in out

    def test_unknown_name_rejected(self, capsys):
        assert main(["exp", "run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_writes_artifact(self, tmp_path, capsys):
        code = main(
            [
                "exp", "run", "smoke",
                "--trials", "2",
                "--scale", "0.01",
                "--jobs", "2",
                "--no-cache",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "EXP_smoke.json").read_text())
        assert report["kind"] == "experiment"
        assert report["name"] == "smoke"
        assert report["jobs"] == 2
        assert report["trials"] == 2
        assert report["cell_count"] == 2
        assert len(report["results_digest"]) == 16
        assert "digest" in capsys.readouterr().out

    def test_parallel_run_matches_serial_digest(self, tmp_path, capsys):
        # The serial/parallel determinism contract, as CI's exp-smoke job
        # checks it: jobs=2 and jobs=1 give bit-identical report digests.
        reports = {}
        for jobs in (2, 1):
            out = tmp_path / f"jobs{jobs}"
            code = main(
                [
                    "exp", "run", "smoke",
                    "--trials", "3",
                    "--scale", "0.01",
                    "--jobs", str(jobs),
                    "--no-cache",
                    "--out", str(out),
                ]
            )
            assert code == 0
            reports[jobs] = json.loads((out / "EXP_smoke.json").read_text())
        assert reports[2]["jobs"] == 2
        assert reports[1]["jobs"] == 1
        assert reports[2]["trials"] == reports[1]["trials"] == 3
        assert len(reports[2]["results_digest"]) == 16
        assert reports[2]["results_digest"] == reports[1]["results_digest"]
        assert "digest" in capsys.readouterr().out

    def test_run_multiple_specs_combined_artifact(self, tmp_path):
        code = main(
            [
                "exp", "run", "ablation_backoff", "ablation_comparator",
                "--no-cache",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "EXP_report.json").read_text())
        assert payload["kind"] == "experiment-report"
        assert [r["name"] for r in payload["experiments"]] == [
            "ablation_backoff", "ablation_comparator",
        ]

    def test_report_renders_saved_artifact(self, tmp_path, capsys):
        assert main(
            [
                "--quiet", "exp", "run", "smoke",
                "--trials", "1", "--scale", "0.01", "--no-cache",
                "--out", str(tmp_path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["exp", "report", str(tmp_path / "EXP_smoke.json")]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out
        assert "li_time median" in out

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["exp", "report", str(tmp_path / "nope.json")]) == 2
        assert "no such report" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"kind": "experiment", "name": "x"},
            {"name": "obs_overhead", "null_overhead": 0.01},
        ],
        ids=["list", "experiment-without-fields", "other-object"],
    )
    def test_report_rejects_other_json(self, tmp_path, capsys, payload):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(payload))
        assert main(["exp", "report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {path}: not an experiment report" in captured.err

    def test_invalid_jobs_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["exp", "run", "smoke", "--jobs", "0", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "jobs" in capsys.readouterr().err
