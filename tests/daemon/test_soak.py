"""The soak harness end-to-end: one short fault-injected run per shape."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.core.errors import FaultError
from repro.daemon.soak import SoakReport, SoakRunResult, run_soak


@pytest.fixture
def workdir():
    # Soak rundirs hold Unix sockets; stay under the ~108-byte path cap.
    path = Path(tempfile.mkdtemp(prefix="reprosoak-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


class TestReportShapes:
    def test_empty_report_is_not_ok(self):
        assert SoakReport().ok is False

    def test_one_failed_run_fails_the_report(self):
        good = SoakRunResult(scenario="ipc-chaos", seed=1, duration=1.0, ok=True)
        bad = SoakRunResult(scenario="peer-hang", seed=1, duration=1.0, ok=False)
        assert SoakReport(runs=[good]).ok is True
        assert SoakReport(runs=[good, bad]).ok is False

    def test_to_dict_round_trips_the_verdict(self):
        run = SoakRunResult(scenario="ipc-chaos", seed=2, duration=3.0, ok=True)
        body = SoakReport(runs=[run]).to_dict()
        assert body["ok"] is True
        assert body["runs"][0]["scenario"] == "ipc-chaos"

    def test_unknown_scenario_rejected_before_any_run(self, workdir):
        with pytest.raises(FaultError, match="gremlins"):
            run_soak(["gremlins"], seeds=[1], duration=1.0, workdir=workdir)


class TestShortSoak:
    def test_ipc_chaos_run_matches_every_fault(self, workdir):
        report = run_soak(["ipc-chaos"], seeds=[1], duration=5.0, workdir=workdir)
        assert len(report.runs) == 1
        run = report.runs[0]
        assert run.ok, run.unmatched or run.note
        assert run.injected >= 1
        assert run.matched == run.injected
        assert not run.unmatched
        # Every injection auto-dumped the flight recorder for post-mortem.
        assert run.flight_dumps
        # The workdir is self-describing: the report is persisted for CI
        # artifact uploads.
        saved = json.loads((workdir / "soak-report.json").read_text())
        assert saved == report.to_dict()

    def test_daemon_crash_restores_bit_identically(self, workdir):
        report = run_soak(["daemon-crash"], seeds=[1], duration=3.0, workdir=workdir)
        run = report.runs[0]
        assert run.ok, run.unmatched or run.note
        # Digests read from the saved target files after the kill -9.
        assert run.restore["g1"]["match"] is True
        assert run.restore["c1"]["match"] is True
