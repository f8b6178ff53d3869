"""The CI perf gate's decision rule (benchmarks/paired_gate.py).

The rule is fed synthetic per-pair perfbench results: no subprocess runs
and nothing is timed.  A change fails when an end-to-end median is worse
than its BENCHMARK.json bound, when ``trials_per_s`` loses in at least
nine tenths of the pairs with medians apart by more than the parent's
IQR, or when it fails more of its trials than the parent.  Every metric's
report line counts its losing pairs; only the headline's count is judged.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import paired_gate  # noqa: E402

MANIFEST = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Parent trials_per_s of ten runs, spread ~2% like 15 s runs on a shared host.
PARENT_RATES = [10.0, 10.2, 9.9, 10.1, 9.8, 10.3, 10.0, 9.95, 10.15, 10.05]


def result(rate: float, correct: bool = True, failed: int = 0, **overrides) -> dict:
    """One perfbench JSON result line with every end-to-end metric."""
    values = {
        "trials_per_s": rate,
        "trial_s_p50": 1.0 / rate,
        "trial_s_p75": 1.1 / rate,
        "sim_events_per_s": 20_000.0 * rate,
        "peak_rss_mb": 88.0,
        "setup_s": 0.2,
        **overrides,
    }
    return {
        "correct": correct,
        "attempted": 150,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in MANIFEST["end_to_end"]
            if metric["name"] in values
        },
    }


def pairs_with(changes: list[dict]) -> list[tuple[dict, dict]]:
    return [(result(rate), change) for rate, change in zip(PARENT_RATES, changes)]


def failures(pairs, manifest=MANIFEST) -> list[str]:
    return paired_gate.judge(manifest, pairs)[1]


class TestJudge:
    def test_identical_pairs_pass(self):
        assert failures(pairs_with([result(rate) for rate in PARENT_RATES])) == []

    def test_six_percent_loss_in_every_pair_fails(self):
        found = failures(pairs_with([result(rate * 0.94) for rate in PARENT_RATES]))
        assert len(found) == 1
        assert "trials_per_s: worse in 10 of 10 pairs" in found[0]

    def test_loss_in_8_of_10_pairs_inside_the_bound_passes(self):
        changes = [result(rate * 0.94) for rate in PARENT_RATES[:8]]
        changes += [result(rate * 1.01) for rate in PARENT_RATES[8:]]
        assert failures(pairs_with(changes)) == []

    def test_higher_is_better_median_loss_beyond_bound_fails(self):
        changes = [
            result(rate, sim_events_per_s=20_000.0 * rate * 0.8)
            for rate in PARENT_RATES
        ]
        found = failures(pairs_with(changes))
        assert len(found) == 1
        assert found[0].startswith("sim_events_per_s: median worse by 20.00%")

    def test_lower_is_better_median_loss_beyond_bound_fails(self):
        changes = [result(rate, setup_s=0.2 * 1.3) for rate in PARENT_RATES]
        found = failures(pairs_with(changes))
        assert len(found) == 1
        assert found[0].startswith("setup_s: median worse by 30.00%")

    def test_improvements_and_ties_never_fail(self):
        better = [
            result(rate * 1.5, setup_s=0.1, peak_rss_mb=40.0) for rate in PARENT_RATES
        ]
        assert failures(pairs_with(better)) == []
        ties = [result(rate) for rate in PARENT_RATES[:5]]
        ties += [result(rate * 0.95) for rate in PARENT_RATES[5:]]
        # Five ties and five losses: the ties count for neither side.
        assert failures(pairs_with(ties)) == []

    def test_every_metric_reports_its_losing_pairs_without_judging_them(self):
        # A faster rate beside a median trial that is worse in three pairs,
        # and a setup time worse in every pair but inside its bound.
        changes = [
            result(rate * 1.1, trial_s_p50=1.0 / rate, setup_s=0.22) for rate in PARENT_RATES
        ]
        for change in changes[:3]:
            change["metrics"]["trial_s_p50"]["value"] *= 1.02
        lines, found = paired_gate.judge(MANIFEST, pairs_with(changes))
        assert found == []
        counts = {line.split()[0]: line.rsplit(", ", 1)[1] for line in lines[:-1]}
        assert counts == {
            "trials_per_s": "worse in 0 of 10 pairs",
            "trial_s_p50": "worse in 3 of 10 pairs",
            "trial_s_p75": "worse in 0 of 10 pairs",
            "sim_events_per_s": "worse in 0 of 10 pairs",
            "peak_rss_mb": "worse in 0 of 10 pairs",
            "setup_s": "worse in 10 of 10 pairs",
        }

    def test_change_run_with_incorrect_output_fails(self):
        changes = [result(rate) for rate in PARENT_RATES]
        changes[3] = result(PARENT_RATES[3], correct=False, failed=1)
        found = failures(pairs_with(changes))
        assert any("correct: false" in line for line in found)

    def test_higher_failed_share_fails(self):
        parents = [result(rate, failed=1) for rate in PARENT_RATES]
        changes = [result(rate, failed=2) for rate in PARENT_RATES]
        found = failures(list(zip(parents, changes)))
        assert found == ["the change failed 1.33% of its trials, the parent 0.67%"]
        assert failures(list(zip(changes, parents))) == []

    def test_metric_missing_from_a_run_fails(self):
        changes = [result(rate) for rate in PARENT_RATES]
        for change in changes:
            del change["metrics"]["peak_rss_mb"]
        del changes[3]["metrics"]["trials_per_s"]
        assert failures(pairs_with(changes)) == [
            "trials_per_s: missing from 1 of 10 pairs",
            "peak_rss_mb: missing from 10 of 10 pairs",
        ]

    def test_bounds_and_directions_come_from_the_manifest(self):
        changes = [result(rate, setup_s=0.2 * 1.1) for rate in PARENT_RATES]
        assert failures(pairs_with(changes)) == []  # setup_s bound is 0.25
        tight = copy.deepcopy(MANIFEST)
        flipped = copy.deepcopy(MANIFEST)
        for metric in tight["end_to_end"]:
            if metric["name"] == "setup_s":
                metric["bound"] = 0.05
        for metric in flipped["end_to_end"]:
            if metric["name"] == "setup_s":
                metric["better"] = "higher"
        assert failures(pairs_with(changes), tight) == [
            "setup_s: median worse by 10.00%, beyond its bound 5%"
        ]
        # Read as higher-is-better, a 10% rise is a gain.
        assert failures(pairs_with(changes), flipped) == []
        shrunk = [result(rate, setup_s=0.2 * 0.7) for rate in PARENT_RATES]
        assert failures(pairs_with(shrunk), flipped) == [
            "setup_s: median worse by 30.00%, beyond its bound 25%"
        ]


#: The tail of a perfbench run's standard output.
PERFBENCH_STDOUT = """\
perfbench workload=fig5_idle seed=1 seconds=15 trace=0
metric error_rate = 0 (0 of 150 trials failed)
digest first4 = fb2c6bd6
digest all150 = a1d0335e
{"correct": true, "attempted": 150, "failed": 0, "metrics": {}}
"""


def with_digest(run: dict, digest: str | None) -> dict:
    run[paired_gate.DIGEST] = digest
    return run


class TestDigestParity:
    def test_first_digest_is_parsed_from_perfbench_output(self):
        assert paired_gate.first_digest(PERFBENCH_STDOUT) == "fb2c6bd6"
        assert paired_gate.first_digest("digest all3 = 0123\n{}") is None

    def test_run_once_attaches_the_digest(self, tmp_path, monkeypatch):
        def fake_subprocess_run(command, cwd, capture_output, text):
            assert "--trace" in command and cwd == tmp_path
            return subprocess.CompletedProcess(command, 0, PERFBENCH_STDOUT, "")

        monkeypatch.setattr(paired_gate.subprocess, "run", fake_subprocess_run)
        run = paired_gate.run_once(MANIFEST, tmp_path, "fig5_idle", tmp_path / "log.txt")
        assert run["correct"] is True
        assert run[paired_gate.DIGEST] == "fb2c6bd6"
        assert (tmp_path / "log.txt").read_text() == PERFBENCH_STDOUT

    def test_report_line_counts_matching_pairs_and_never_fails(self):
        pairs = [
            (with_digest(result(rate), "aa"), with_digest(result(rate), "aa"))
            for rate in PARENT_RATES
        ]
        lines, found = paired_gate.judge(MANIFEST, pairs)
        assert lines[-1] == "digest first4     same in 10 of 10 pairs (identical)"
        assert found == []
        pairs[2][1][paired_gate.DIGEST] = "bb"
        pairs[5][1][paired_gate.DIGEST] = None
        lines, found = paired_gate.judge(MANIFEST, pairs)
        assert lines[-1] == "digest first4     same in 8 of 10 pairs (differs)"
        assert found == []


class TestMain:
    def test_exit_zero_on_identical_and_one_on_regression(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)

        def fake_run(manifest, checkout, workload, log):
            assert log.parent == paired_gate.OUT / workload
            rate = PARENT_RATES[int(log.name[:2]) % len(PARENT_RATES)]
            return result(rate * 0.9 if checkout.name == "change" else rate)

        monkeypatch.setattr(paired_gate, "run_once", fake_run)
        (tmp_path / "parent").mkdir()
        (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(MANIFEST))
        assert paired_gate.main(["parent", "parent"]) == 0
        out = capsys.readouterr().out
        for workload in MANIFEST["workloads"]:
            assert f"pass {workload['name']}" in out
        assert out.count("digest first4     same in 0 of 12 pairs") == len(MANIFEST["workloads"])

        assert paired_gate.main(["parent", "change"]) == 1
        assert "FAIL trials_per_s: worse in" in capsys.readouterr().out

    def test_wrong_argument_count_is_a_usage_error(self, capsys):
        assert paired_gate.main(["only-one"]) == 2
        assert "paired_gate.py PARENT_CHECKOUT CHANGE_CHECKOUT" in capsys.readouterr().err


def test_seed_is_not_the_held_out_seed():
    assert paired_gate.SEED != 7919
