"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — version, default configuration, and the derived section-6
  quantities (minimum samples, reaction time, steady-state cost).
* ``benice`` — regulate a *real, running OS process* from the command
  line: poll its JSON counter file, run the MS Manners pipeline, enforce
  suspensions with SIGSTOP/SIGCONT.  The deployable form of the paper's
  BeNice (section 7.2).
* ``figures`` — regenerate the trace figures' data (Figures 7, 8, 9, 10)
  as tab-separated files ready for any plotting tool.
* ``obs`` — inspect regulation telemetry: ``obs summarize TRACE.jsonl``
  prints the regulation timeline and aggregates of a JSONL event trace
  (written via ``--trace-out`` on ``figures`` or ``benice``);
  ``obs explain TRACE.jsonl THREAD [--at TIME]`` reconstructs a
  suspension decision as a causal span tree (testpoint samples →
  sign-test accumulation → judgment → backoff);
  ``obs export TRACE.jsonl --format jsonl|prom`` re-exports normalized
  events or trace-derived histogram metrics in Prometheus text format.
* ``faults`` — the chaos harness: ``faults run --scenario NAME --seed N``
  executes one named fault-injection scenario against the simulator and
  reports whether the resilience layer absorbed it (exit 0) or not
  (exit 1, also on determinism-fingerprint drift against the recorded
  value; re-record deliberately with ``--record-fingerprints``);
  ``--flightrec DIR`` arms a bounded flight recorder that
  dumps the last-N event ring on each injected fault;
  ``faults list`` names the scenarios.
* ``daemon`` — the supervised regulator daemon (ROADMAP item 5):
  ``daemon serve --socket PATH --state-dir DIR --workers groveler:g1``
  regulates real worker subprocesses over local-socket IPC with
  crash-safe target persistence; ``daemon worker`` runs one regulated
  workload; ``daemon status``/``daemon stop`` speak the control
  protocol; ``daemon soak --scenarios all --seeds 3 --duration 60``
  runs the fault-injected soak and exits non-zero unless every injected
  IPC fault was answered by a matching recovery action (and a kill -9'd
  daemon restored calibration bit-identically).
* ``exp`` — the declarative experiment platform: ``exp list`` names the
  registered :class:`~repro.experiments.spec.ExperimentSpec` entries
  (figures 3/5/6, the ablations, the CI smoke spec); ``exp run NAME...``
  fans each spec's workload x strategy cross product through the
  parallel trial engine and writes one ``EXP_<name>.json`` artifact with
  per-cell samples, summary stats and a results digest; ``exp report
  PATH`` renders a saved artifact.
* ``profile`` — find the hot spots: ``profile SCENARIO --seed N`` runs
  one seeded trial under cProfile (``--memory`` adds tracemalloc) and
  prints top-N tables keyed to the exact scenario/mode/seed/scale so a
  hot spot can be re-measured after a change.  Speed itself is measured
  by the repo benchmark, ``perfbench/run.py``; see docs/performance.md.
* ``verify`` — the conformance suite: ``verify run --seeds N`` sweeps
  every differential oracle and invariant drive over N seeds (exit 1 on
  any mismatch or violation); ``verify lint [PATHS]`` runs the
  determinism lint over ``repro.core`` + ``repro.simos`` (or the given
  paths); ``verify list`` names the oracles, drives, and lint rules.
  See docs/verification.md.

All commands respect a global ``--quiet`` flag (suppresses progress
output; errors still go to stderr).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from repro import __version__
from repro.core.config import DEFAULT_CONFIG, MannersConfig

__all__ = ["Output", "main"]


class Output:
    """Console output helper: progress to stdout, errors to stderr.

    ``--quiet`` silences :meth:`say`; :meth:`error` and :meth:`result`
    always print (results are the command's product, not progress chatter).
    """

    def __init__(self, quiet: bool = False) -> None:
        self.quiet = quiet

    def say(self, message: str = "") -> None:
        """Progress/status line; suppressed under ``--quiet``."""
        if not self.quiet:
            print(message)

    def result(self, message: str = "") -> None:
        """Primary command output; always printed."""
        print(message)

    def error(self, message: str) -> None:
        """Error line, to stderr; never suppressed."""
        print(f"error: {message}", file=sys.stderr)


def _make_telemetry(trace_out: str | None, metrics_out: str | None):
    """Build a Telemetry handle for ``--trace-out``/``--metrics-out``.

    Returns ``(telemetry, finish)`` where ``finish(out)`` flushes/closes
    everything and reports what was written.  Both ``None`` when neither
    flag was given — the regulation stack then runs with telemetry fully
    disabled (the zero-overhead path).
    """
    if trace_out is None and metrics_out is None:
        return None, lambda out: None

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sinks import JsonlSink
    from repro.obs.telemetry import Telemetry
    from repro.obs.trace2 import Tracer

    sink = JsonlSink(trace_out) if trace_out is not None else None
    tracer = Tracer() if trace_out is not None else None
    telemetry = Telemetry(sink=sink, metrics=MetricsRegistry(), tracer=tracer)

    def finish(out: Output) -> None:
        if metrics_out is not None:
            with open(metrics_out, "w", encoding="utf-8") as handle:
                json.dump(telemetry.metrics.snapshot(), handle, indent=2)
                handle.write("\n")
            out.say(f"  metrics snapshot -> {metrics_out}")
        telemetry.close()
        if trace_out is not None:
            out.say(f"  event trace -> {trace_out}")

    return telemetry, finish


def _cmd_info(args: argparse.Namespace, out: Output) -> int:
    from repro.core.queueing import reaction_time, suspended_fraction

    config = DEFAULT_CONFIG
    out.result(f"repro {__version__} — MS Manners (Douceur & Bolosky, SOSP'99)")
    out.result()
    out.result("default configuration (the paper's experimental values):")
    for key, value in config.as_dict().items():
        out.result(f"  {key:<24} {value}")
    out.result()
    out.result("derived (section 6.1):")
    out.result(f"  min samples to condemn    {config.min_poor_samples}")
    out.result(f"  reaction @ 300ms cadence  {reaction_time(config.alpha, 0.3):.1f} s")
    out.result(
        f"  steady-state LI cost      "
        f"{suspended_fraction(config.alpha, config.beta):.1%}"
    )
    return 0


def _config_from_args(args: argparse.Namespace) -> MannersConfig:
    overrides = {}
    for name in (
        "alpha",
        "beta",
        "initial_suspension",
        "max_suspension",
        "min_testpoint_interval",
    ):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return DEFAULT_CONFIG.with_overrides(**overrides) if overrides else DEFAULT_CONFIG


def _cmd_benice(args: argparse.Namespace, out: Output) -> int:
    from repro.realtime.posix_benice import JsonFileCounters, PosixBeNice

    names = [n.strip() for n in args.names.split(",") if n.strip()]
    if not names:
        out.error("--names must list at least one counter")
        return 2
    config = _config_from_args(args)
    telemetry, finish_telemetry = _make_telemetry(args.trace_out, args.metrics_out)
    benice = PosixBeNice(
        args.pid,
        JsonFileCounters(args.counters, names),
        config=config,
        telemetry=telemetry,
    )
    out.say(
        f"regulating pid {args.pid} on counters {names} from {args.counters} "
        f"(alpha={config.alpha}, beta={config.beta}); ctrl-C to stop"
    )
    stop = {"flag": False}

    def on_signal(signum, frame):  # pragma: no cover - interactive path
        stop["flag"] = True

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    benice.start()
    try:
        while not stop["flag"] and benice.target_alive:
            time.sleep(0.5)
            if args.verbose and not out.quiet:
                stats = benice.stats
                print(
                    f"  polls={stats.polls} suspensions={stats.suspensions} "
                    f"frozen={stats.total_suspension_time:.1f}s",
                    end="\r",
                    flush=True,
                )
            if args.duration and time.monotonic() >= args.duration_deadline:
                break
    finally:
        benice.stop()
    stats = benice.stats
    out.result(
        f"done: {stats.polls} polls, {stats.suspensions} suspensions, "
        f"{stats.total_suspension_time:.1f}s frozen"
    )
    finish_telemetry(out)
    return 0


def _cmd_figures(args: argparse.Namespace, out: Output) -> int:
    from repro.apps.base import RegulationMode
    from repro.experiments.scenarios import (
        calibration_trial,
        defrag_database_trial,
        thread_isolation_trial,
    )

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    scale = args.scale
    telemetry, finish_telemetry = _make_telemetry(args.trace_out, args.metrics_out)

    out.say(f"regenerating trace-figure data at scale {scale} into {outdir}/ ...")

    # Figures 7 and 8 come from one traced MS Manners run.
    result = defrag_database_trial(
        RegulationMode.MS_MANNERS,
        seed=4242,
        scale=scale,
        with_traces=True,
        telemetry=telemetry,
    )
    duty = result.extras["duty"]
    thread = result.extras["defrag_thread"]
    trace = result.extras["testpoints"]
    end = result.li_time or 2000.0
    with open(outdir / "fig7_duty.tsv", "w", encoding="utf-8") as handle:
        handle.write("time_s\tduty\n")
        for t, fraction in duty.binned(thread, 0.0, end, 10.0):
            handle.write(f"{t:.1f}\t{fraction:.4f}\n")
    with open(outdir / "fig8_progress.tsv", "w", encoding="utf-8") as handle:
        handle.write("time_s\tnormalized_progress\n")
        for t, value in trace.normalized_progress(0.0, end, window=2.0):
            handle.write(f"{t:.1f}\t{value:.4f}\n")
    out.say("  fig7_duty.tsv, fig8_progress.tsv")
    finish_telemetry(out)

    # Figure 9: per-thread duty series.
    isolation = thread_isolation_trial(seed=11, duration=300.0)
    with open(outdir / "fig9_isolation.tsv", "w", encoding="utf-8") as handle:
        handle.write("time_s\tgrovelC\tgrovelD\n")
        c_series = isolation.duty.binned(
            isolation.threads["grovelC"], 0.0, isolation.duration, 5.0
        )
        d_series = isolation.duty.binned(
            isolation.threads["grovelD"], 0.0, isolation.duration, 5.0
        )
        for (t, c), (_, d) in zip(c_series, d_series):
            handle.write(f"{t:.1f}\t{c:.4f}\t{d:.4f}\n")
    out.say("  fig9_isolation.tsv")

    # Figure 10: target trajectory + activity.
    calibration = calibration_trial(
        seed=13, hours=args.hours, probation_hours=args.hours / 4.0,
        diurnal_hours=args.hours / 2.0, scale=min(scale, 0.5),
    )
    with open(outdir / "fig10_calibration.tsv", "w", encoding="utf-8") as handle:
        handle.write("hour\ttarget_duration_s\tactivity\n")
        activity = dict(calibration.activity)
        for hour, target in calibration.target_trajectory:
            handle.write(f"{hour}\t{target:.4f}\t{activity.get(hour, 0.0):.4f}\n")
    out.say("  fig10_calibration.tsv")
    return 0


def _cmd_faults(args: argparse.Namespace, out: Output) -> int:
    from repro.core.errors import FaultError
    from repro.faults.scenarios import SCENARIOS, run_scenario

    if args.faults_command == "list":
        for name, fn in sorted(SCENARIOS.items()):
            doc = (fn.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            out.result(f"  {name:<22} {summary}")
        return 0
    if args.faults_command == "run":
        extra_sink = None
        recorder = None
        sinks = []
        if args.trace_out is not None:
            from repro.obs.sinks import JsonlSink

            sinks.append(JsonlSink(args.trace_out))
        if args.flightrec is not None:
            from repro.obs.flightrec import FlightRecorder

            recorder = FlightRecorder(
                capacity=args.flightrec_capacity, dump_dir=args.flightrec
            )
            sinks.append(recorder)
        if len(sinks) == 1:
            extra_sink = sinks[0]
        elif sinks:
            from repro.obs.sinks import FanoutSink

            extra_sink = FanoutSink(*sinks)
        try:
            report = run_scenario(args.scenario, seed=args.seed, extra_sink=extra_sink)
        except FaultError as exc:
            out.error(str(exc))
            return 2
        finally:
            for sink in sinks:
                sink.close()
        # Determinism gate: same seed must reproduce the recorded trace
        # fingerprint exactly; drift is a failure even when every scenario
        # check passed.
        from repro.faults.scenarios import (
            fingerprint_key,
            record_fingerprints,
            recorded_fingerprint,
        )

        recorded = recorded_fingerprint(report.name, report.seed)
        if args.record_fingerprints:
            record_fingerprints({fingerprint_key(report.name, report.seed): report.fingerprint})
            fingerprint_ok = True
        else:
            fingerprint_ok = recorded is None or recorded == report.fingerprint
        if args.json:
            body = report.as_dict()
            body["recorded_fingerprint"] = recorded
            body["fingerprint_ok"] = fingerprint_ok
            out.result(json.dumps(body, indent=2))
        else:
            verdict = "ok" if report.ok else "FAILED"
            out.result(
                f"{report.name} seed={report.seed}: {verdict} "
                f"(sim_time={report.sim_time:.1f}s testpoints={report.testpoints} "
                f"suspensions={report.suspensions} fingerprint={report.fingerprint})"
            )
            out.say(f"  injected:   {', '.join(report.injected) or '-'}")
            out.say(f"  anomalies:  {', '.join(sorted(set(report.anomalies))) or '-'}")
            out.say(f"  recoveries: {', '.join(sorted(set(report.recoveries))) or '-'}")
            for check, passed in report.checks:
                out.say(f"  [{'pass' if passed else 'FAIL'}] {check}")
        if args.record_fingerprints:
            out.say(f"  fingerprint recorded: {report.fingerprint}")
        elif recorded is None:
            out.say(
                "  no recorded fingerprint for this scenario/seed "
                "(record one with --record-fingerprints)"
            )
        elif not fingerprint_ok:
            out.error(
                f"determinism fingerprint mismatch for {report.name} "
                f"seed={report.seed}: recorded {recorded}, got {report.fingerprint} "
                "— the scenario no longer reproduces bit-for-bit"
            )
        if args.trace_out is not None:
            out.say(f"  event trace -> {args.trace_out}")
        if recorder is not None:
            if recorder.dump_paths:
                for path in recorder.dump_paths:
                    out.say(f"  flight-recorder dump -> {path}")
            else:
                out.say("  flight recorder armed but no dump was triggered")
        return 0 if report.ok and fingerprint_ok else 1
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_daemon(args: argparse.Namespace, out: Output) -> int:
    import asyncio
    import socket as socket_module
    import tempfile

    from repro.core.errors import FaultError, MannersError

    if args.daemon_command == "serve":
        from repro.daemon.server import RegulatorDaemon, WorkerSpec

        try:
            workers = WorkerSpec.parse(args.workers) if args.workers else []
        except ValueError as exc:
            out.error(str(exc))
            return 2
        if args.fast:
            from repro.daemon.soak import soak_config

            config = soak_config()
        else:
            config = _config_from_args(args)
        telemetry = None
        sinks = []
        if args.trace_out is not None:
            from repro.obs.sinks import JsonlSink

            sinks.append(JsonlSink(args.trace_out))
        if args.flightrec is not None:
            from repro.obs.flightrec import FlightRecorder
            from repro.obs.telemetry import Telemetry

            recorder = FlightRecorder(capacity=1024, dump_dir=args.flightrec)
            telemetry = Telemetry(
                sink=sinks[0] if sinks else None,
                label="daemon",
                flight_recorder=recorder,
            )
        elif sinks:
            from repro.obs.telemetry import Telemetry

            telemetry = Telemetry(sink=sinks[0], label="daemon")
        daemon = RegulatorDaemon(
            args.socket,
            state_dir=args.state_dir,
            config=config,
            telemetry=telemetry,
            workers=workers,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            save_interval=args.save_interval,
        )
        out.say(
            f"regulator daemon on {args.socket} "
            f"(state={args.state_dir or '-'}, workers={args.workers or '-'})"
        )
        try:
            asyncio.run(
                daemon.run(
                    duration=args.duration if args.duration > 0 else None,
                    install_signals=True,
                )
            )
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        finally:
            if telemetry is not None:
                telemetry.close()
        out.say("daemon drained")
        return 0

    if args.daemon_command == "worker":
        from repro.daemon.worker import run_worker

        return run_worker(
            socket_path=args.socket,
            name=args.name,
            kind=args.kind,
            app_id=args.app_id,
            unit_bytes=args.unit_bytes,
            max_units=args.max_units,
        )

    if args.daemon_command in ("status", "stop"):
        from repro.daemon.client import ControlClient

        control = ControlClient(args.socket)
        try:
            reply = control.request(args.daemon_command)
        except (OSError, socket_module.timeout, MannersError) as exc:
            out.error(f"cannot reach daemon at {args.socket}: {exc}")
            return 1
        finally:
            control.close()
        out.result(json.dumps(reply, indent=2))
        return 0

    if args.daemon_command == "soak":
        from repro.daemon.chaos import SCENARIO_KINDS
        from repro.daemon.soak import run_soak

        if args.scenarios.strip() == "all":
            scenarios = sorted(SCENARIO_KINDS)
        else:
            scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
        seeds = list(range(1, args.seeds + 1))
        workdir = args.workdir or tempfile.mkdtemp(prefix="repro-soak-")
        out.say(
            f"soaking scenarios {scenarios} over seeds {seeds} "
            f"({args.duration:g}s each) in {workdir}"
        )
        try:
            report = run_soak(
                scenarios, seeds, args.duration, workdir, say=out.say
            )
        except FaultError as exc:
            out.error(str(exc))
            return 2
        if args.json:
            out.result(json.dumps(report.to_dict(), indent=2))
        else:
            for run in report.runs:
                verdict = "ok" if run.ok else "FAILED"
                out.result(
                    f"  {run.scenario:<14} seed={run.seed}: {verdict} "
                    f"injected={run.injected} matched={run.matched} "
                    f"recoveries={run.recoveries}"
                    + (f" note={run.note}" if run.note else "")
                )
                for line in run.unmatched:
                    out.result(f"      unrecovered: {line}")
            out.result(
                f"soak {'ok' if report.ok else 'FAILED'}: "
                f"{len(report.runs)} run(s), artifacts in {workdir}"
            )
        return 0 if report.ok else 1
    return 2  # pragma: no cover - argparse enforces the choices


def _render_experiment(report: dict, out: Output) -> None:
    """Human-readable summary of one experiment report."""
    out.result(
        f"{report['name']}: {report['cell_count']} cells x "
        f"{report['trials']} trials @ jobs={report['jobs']} "
        f"scale={report['scale']:g} in {report['wall_time_s']:.2f}s "
        f"(executed {report['trials_executed']}, "
        f"cached {report['trials_cached']})"
    )
    out.result(f"  scenario {report['scenario']}, seeds {report['seeds']} "
               f"from {report['seed_base']}, digest {report['results_digest']}")
    for cell in report["cells"]:
        parts = []
        for metric in report["metrics"]:
            stats = cell["stats"].get(metric)
            if stats is not None:
                parts.append(f"{metric} median {stats['median']:.4g}")
        out.result(f"    {cell['label'] or '-':<28} {'  '.join(parts)}")


def _cmd_exp(args: argparse.Namespace, out: Output) -> int:
    from repro.experiments.spec import (
        EXPERIMENTS,
        get_experiment,
        load_experiment_report,
        run_experiments,
        write_experiment_report,
    )

    if args.exp_command == "list":
        for name, spec in sorted(EXPERIMENTS.items()):
            grid = " x ".join(
                f"{var}[{len(levels)}]" for var, levels in spec.variables
            )
            out.result(f"  {name:<22} {spec.summary}")
            out.result(
                f"  {'':<22} scenario={spec.scenario} cells={spec.cell_count} "
                f"({grid}) seeds={spec.seeds}"
            )
        return 0

    if args.exp_command == "report":
        try:
            payload = load_experiment_report(args.path)
        except FileNotFoundError:
            out.error(f"no such report file: {args.path}")
            return 2
        except ValueError as exc:
            out.error(f"{args.path}: not an experiment report: {exc}")
            return 2
        reports = (
            [payload]
            if payload.get("kind") == "experiment"
            else payload["experiments"]
        )
        for report in reports:
            _render_experiment(report, out)
        return 0

    if args.exp_command == "run":
        from repro.analysis.parallel import DEFAULT_CACHE_DIR, TrialCache

        try:
            specs = [get_experiment(name) for name in args.names]
        except ValueError as exc:
            out.error(str(exc))
            return 2
        cache = None if args.no_cache else TrialCache(DEFAULT_CACHE_DIR)
        try:
            reports = run_experiments(
                specs,
                trials=args.trials,
                jobs=args.jobs,
                scale=args.scale,
                cache=cache,
            )
        except ValueError as exc:
            out.error(str(exc))
            return 2
        payload: dict = (
            reports[0]
            if len(reports) == 1
            else {"kind": "experiment-report", "experiments": reports}
        )
        path = write_experiment_report(payload, args.out)
        if args.json:
            out.result(json.dumps(payload, indent=2))
        else:
            for report in reports:
                _render_experiment(report, out)
        out.say(f"  report -> {path}")
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_profile(args: argparse.Namespace, out: Output) -> int:
    from repro.analysis.profiling import profile_scenario

    try:
        report = profile_scenario(
            args.scenario,
            mode=args.mode,
            seed=args.seed,
            scale=args.scale,
            top=args.top,
            memory=args.memory,
        )
    except ValueError as exc:
        out.error(str(exc))
        return 2
    text = report.render()
    out.result(text)
    if args.out is not None:
        from pathlib import Path

        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        out.say(f"  report -> {path}")
    return 0


def _cmd_verify(args: argparse.Namespace, out: Output) -> int:
    from repro.verify.harness import INVARIANT_DRIVES, ORACLES, run_verification
    from repro.verify.lint import RULES, lint_paths

    if args.verify_command == "list":
        out.result("differential oracles:")
        for name, fn in ORACLES.items():
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            out.result(f"  {name:<18} {summary}")
        out.result("invariant drives:")
        for name, fn in INVARIANT_DRIVES.items():
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            out.result(f"  {name:<18} {summary}")
        out.result("lint rules:")
        for name, summary in RULES.items():
            out.result(f"  {name:<18} {summary}")
        return 0
    if args.verify_command == "lint":
        findings = lint_paths(args.paths or None)
        for finding in findings:
            out.result(
                f"{finding.path}:{finding.line}: [{finding.rule}] {finding.message}"
            )
        if findings:
            out.error(f"{len(findings)} determinism finding(s)")
            return 1
        out.result("lint clean")
        return 0
    if args.verify_command == "run":
        seeds = list(range(1, args.seeds + 1))
        out.say(f"running {len(ORACLES)} oracles + {len(INVARIANT_DRIVES)} "
                f"invariant drives over seeds {seeds} ...")
        report = run_verification(seeds)
        if args.json:
            out.result(json.dumps(report.as_dict(), indent=2))
        else:
            for line in report.lines():
                out.result(f"  {line}")
            verdict = "ok" if report.ok else "FAILED"
            out.result(
                f"verification {verdict}: {report.total_cases} cases "
                f"across {len(seeds)} seed(s)"
            )
        return 0 if report.ok else 1
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_obs(args: argparse.Namespace, out: Output) -> int:
    from repro.core.errors import MannersError
    from repro.obs.report import read_events

    if args.obs_command == "summarize":
        from repro.obs.report import summarize

        try:
            events = read_events(args.trace)
        except FileNotFoundError:
            out.error(f"no such trace file: {args.trace}")
            return 2
        except MannersError as exc:
            out.error(str(exc))
            return 2
        if not events:
            out.error(
                f"{args.trace}: trace is empty (no events) — nothing to "
                "summarize; was the run telemetry-disabled or the file "
                "truncated to zero length?"
            )
            return 1
        out.result(summarize(events, width=args.width))
        return 0
    if args.obs_command == "explain":
        from repro.obs.trace2 import explain

        try:
            out.result(explain(args.trace, args.thread, at=args.at))
        except FileNotFoundError:
            out.error(f"no such trace file: {args.trace}")
            return 2
        except MannersError as exc:
            out.error(str(exc))
            return 1
        return 0
    if args.obs_command == "export":
        try:
            events = read_events(args.trace)
        except FileNotFoundError:
            out.error(f"no such trace file: {args.trace}")
            return 2
        except MannersError as exc:
            out.error(str(exc))
            return 2
        if args.format == "jsonl":
            from repro.obs.events import event_to_dict

            text = "".join(json.dumps(event_to_dict(e)) + "\n" for e in events)
        else:
            from repro.obs.metrics import to_prometheus
            from repro.obs.report import metrics_from_events

            text = to_prometheus(metrics_from_events(events))
        if args.out is not None:
            Path(args.out).write_text(text, encoding="utf-8")
            out.say(f"  {args.format} export -> {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


def _checked(check, source: str):
    """argparse ``type`` running ``check(raw, source)``; a ValueError is a usage error."""

    def parse(raw: str):
        try:
            return check(raw, source)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.analysis.env import check_duration, check_scale, parse_count

    parser = argparse.ArgumentParser(
        prog="repro", description="MS Manners reproduction toolkit"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show version, defaults, derived quantities")

    benice = sub.add_parser(
        "benice", help="regulate a running OS process (SIGSTOP BeNice)"
    )
    benice.add_argument("--pid", type=int, required=True, help="target process id")
    benice.add_argument(
        "--counters", required=True, help="path to the target's JSON counter file"
    )
    benice.add_argument(
        "--names", required=True, help="comma-separated counter names (metric order)"
    )
    benice.add_argument("--alpha", type=float, default=None)
    benice.add_argument("--beta", type=float, default=None)
    benice.add_argument("--initial-suspension", dest="initial_suspension", type=float)
    benice.add_argument("--max-suspension", dest="max_suspension", type=float)
    benice.add_argument(
        "--min-testpoint-interval", dest="min_testpoint_interval", type=float
    )
    benice.add_argument(
        "--duration", type=_checked(check_duration, "duration"), default=0.0,
        help="stop after N s (default 0: no limit)",
    )
    benice.add_argument("--verbose", action="store_true")
    benice.add_argument(
        "--trace-out", dest="trace_out", default=None,
        help="write the telemetry event trace to this JSONL file",
    )
    benice.add_argument(
        "--metrics-out", dest="metrics_out", default=None,
        help="write a final metrics snapshot to this JSON file",
    )

    figures = sub.add_parser("figures", help="regenerate trace-figure data (TSV)")
    figures.add_argument("--out", default="figures", help="output directory")
    figures.add_argument("--scale", type=_checked(check_scale, "scale"), default=0.3)
    figures.add_argument("--hours", type=_checked(check_scale, "hours"), default=4.0)
    figures.add_argument(
        "--trace-out", dest="trace_out", default=None,
        help="write the fig6/7/8 run's telemetry event trace to this JSONL file",
    )
    figures.add_argument(
        "--metrics-out", dest="metrics_out", default=None,
        help="write the fig6/7/8 run's metrics snapshot to this JSON file",
    )

    faults = sub.add_parser("faults", help="run fault-injection chaos scenarios")
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_run = faults_sub.add_parser(
        "run", help="execute one named chaos scenario"
    )
    faults_run.add_argument(
        "--scenario", required=True, help="scenario name (see 'faults list')"
    )
    faults_run.add_argument(
        "--seed", type=int, default=1, help="simulation seed (default 1)"
    )
    faults_run.add_argument(
        "--trace-out", dest="trace_out", default=None,
        help="also write the scenario's event trace to this JSONL file",
    )
    faults_run.add_argument(
        "--flightrec", default=None, metavar="DIR",
        help="arm a flight recorder; dump the last-N event ring to DIR "
        "whenever a fault fires or an invariant violation is recorded",
    )
    faults_run.add_argument(
        "--flightrec-capacity", dest="flightrec_capacity", type=int, default=256,
        metavar="N", help="flight-recorder ring capacity in events (default 256)",
    )
    faults_run.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    faults_run.add_argument(
        "--record-fingerprints", dest="record_fingerprints", action="store_true",
        help="record this run's determinism fingerprint as the expected "
        "value instead of checking against it",
    )
    faults_sub.add_parser("list", help="list the available scenarios")

    daemon = sub.add_parser(
        "daemon", help="the supervised regulator daemon (serve/worker/soak)"
    )
    daemon_sub = daemon.add_subparsers(dest="daemon_command", required=True)
    serve = daemon_sub.add_parser(
        "serve", help="run the daemon: regulate worker subprocesses over IPC"
    )
    serve.add_argument("--socket", required=True, help="Unix socket path to serve on")
    serve.add_argument(
        "--state-dir", dest="state_dir", default=None,
        help="directory for the per-application target files",
    )
    serve.add_argument(
        "--workers", default="",
        help="comma-separated KIND:NAME worker subprocesses to spawn and "
        "supervise (e.g. groveler:g1,compressor:c1)",
    )
    serve.add_argument(
        "--duration", type=_checked(check_duration, "duration"), default=0.0,
        help="drain after N seconds (default 0: run until signalled)",
    )
    serve.add_argument(
        "--fast", action="store_true",
        help="use the fast-converging soak configuration",
    )
    serve.add_argument("--alpha", type=float, default=None)
    serve.add_argument("--beta", type=float, default=None)
    serve.add_argument("--initial-suspension", dest="initial_suspension", type=float)
    serve.add_argument("--max-suspension", dest="max_suspension", type=float)
    serve.add_argument(
        "--min-testpoint-interval", dest="min_testpoint_interval", type=float
    )
    serve.add_argument(
        "--heartbeat-interval", dest="heartbeat_interval", default=1.0,
        type=_checked(check_scale, "heartbeat_interval"),
        help="seconds between wait/liveness beats (default 1.0)",
    )
    serve.add_argument(
        "--heartbeat-timeout", dest="heartbeat_timeout", default=5.0,
        type=_checked(check_scale, "heartbeat_timeout"),
        help="silence after which a non-parked worker is evicted (default 5.0)",
    )
    serve.add_argument(
        "--save-interval", dest="save_interval", default=1.0,
        type=_checked(check_scale, "save_interval"),
        help="seconds between saves of the targets that changed (default 1.0)",
    )
    serve.add_argument(
        "--trace-out", dest="trace_out", default=None,
        help="write the daemon's telemetry event trace to this JSONL file",
    )
    serve.add_argument(
        "--flightrec", default=None, metavar="DIR",
        help="arm a flight recorder dumping the event ring to DIR on faults",
    )
    worker = daemon_sub.add_parser(
        "worker", help="run one regulated worker against a daemon"
    )
    worker.add_argument("--socket", required=True, help="daemon socket path")
    worker.add_argument("--name", required=True, help="unique worker name")
    worker.add_argument(
        "--kind", default="groveler", choices=("groveler", "compressor")
    )
    worker.add_argument("--app-id", dest="app_id", default=None)
    worker.add_argument("--unit-bytes", dest="unit_bytes", type=int, default=262144)
    worker.add_argument("--max-units", dest="max_units", type=int, default=None)
    status = daemon_sub.add_parser("status", help="query a running daemon")
    status.add_argument("--socket", required=True, help="daemon socket path")
    stop = daemon_sub.add_parser("stop", help="request a graceful drain")
    stop.add_argument("--socket", required=True, help="daemon socket path")
    soak = daemon_sub.add_parser(
        "soak", help="fault-injected soak: chaos scenarios against a live daemon"
    )
    soak.add_argument(
        "--scenarios", default="all",
        help="comma-separated scenario names, or 'all' "
        "(ipc-chaos, peer-hang, worker-crash, daemon-crash)",
    )
    soak.add_argument(
        "--seeds", type=_checked(parse_count, "seeds"), default=3,
        help="sweep seeds 1..N (default 3)",
    )
    soak.add_argument(
        "--duration", type=_checked(check_scale, "duration"), default=60.0,
        help="seconds of chaos per run (default 60)",
    )
    soak.add_argument(
        "--workdir", default=None,
        help="directory for per-run state/traces/flight-recorder dumps "
        "(default: a fresh temp directory)",
    )
    soak.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )

    exp = sub.add_parser(
        "exp", help="list/run/report declarative experiment specs"
    )
    exp_sub = exp.add_subparsers(dest="exp_command", required=True)
    exp_sub.add_parser("list", help="list the registered experiment specs")
    exp_run = exp_sub.add_parser(
        "run", help="run one or more specs and write one report artifact"
    )
    exp_run.add_argument(
        "names", nargs="+", help="experiment spec names (see 'exp list')"
    )
    exp_run.add_argument(
        "--trials", type=int, default=None,
        help="trials per cell (default: the spec's pin, REPRO_TRIALS, or "
        "its own default)",
    )
    exp_run.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or 1 — serial runs "
        "are bit-identical to parallel ones)",
    )
    exp_run.add_argument(
        "--scale", type=float, default=None,
        help="workload scale (default: the spec's pin, REPRO_SCALE, or 1.0)",
    )
    exp_run.add_argument(
        "--no-cache", action="store_true",
        help="do not read from or store into the trial cache",
    )
    exp_run.add_argument(
        "--out", default="benchmarks/results",
        help="directory for EXP_<name>.json (default benchmarks/results)",
    )
    exp_run.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    exp_report = exp_sub.add_parser(
        "report", help="render a saved EXP_*.json report artifact"
    )
    exp_report.add_argument("path", help="path to an EXP_*.json artifact")

    profile = sub.add_parser(
        "profile", help="profile one seeded scenario trial (cProfile top-N)"
    )
    profile.add_argument(
        "scenario", help="scenario name (e.g. defrag_database, defrag_idle)"
    )
    profile.add_argument(
        "--mode", default="MS Manners",
        help='regulation mode value (default "MS Manners")',
    )
    profile.add_argument(
        "--seed", type=int, default=1000, help="trial seed (default 1000)"
    )
    profile.add_argument(
        "--scale", type=_checked(check_scale, "scale"), default=0.05,
        help="workload scale (default 0.05)",
    )
    profile.add_argument(
        "--top", type=int, default=25,
        help="entries per pstats table (default 25)",
    )
    profile.add_argument(
        "--memory", action="store_true",
        help="also record tracemalloc top allocation sites",
    )
    profile.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the report to this file",
    )

    verify = sub.add_parser(
        "verify", help="run the conformance oracles, invariants, and lint"
    )
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    verify_run = verify_sub.add_parser(
        "run", help="sweep every oracle and invariant drive over seeds"
    )
    verify_run.add_argument(
        "--seeds", type=_checked(parse_count, "seeds"), default=3,
        help="number of seeds to sweep, 1..N (default 3)",
    )
    verify_run.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    verify_lint = verify_sub.add_parser(
        "lint", help="run the determinism lint (default: core + simos)"
    )
    verify_lint.add_argument(
        "paths", nargs="*", help="files or directories to lint instead"
    )
    verify_sub.add_parser(
        "list", help="list oracles, invariant drives, and lint rules"
    )

    obs = sub.add_parser("obs", help="inspect regulation telemetry")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help="summarize a JSONL event trace"
    )
    summarize.add_argument("trace", help="path to a --trace-out JSONL file")
    summarize.add_argument(
        "--width", type=int, default=72, help="plot width in characters"
    )
    explain = obs_sub.add_parser(
        "explain", help="reconstruct why a thread was suspended, as a span tree"
    )
    explain.add_argument("trace", help="path to a --trace-out JSONL file")
    explain.add_argument("thread", help="thread id (the span's src label)")
    explain.add_argument(
        "--at", type=float, default=None, metavar="TIME",
        help="explain the latest suspension at or before TIME "
        "(default: the thread's last suspension)",
    )
    export = obs_sub.add_parser(
        "export", help="re-export a trace as normalized JSONL or Prometheus text"
    )
    export.add_argument("trace", help="path to a --trace-out JSONL file")
    export.add_argument(
        "--format", choices=("jsonl", "prom"), default="jsonl",
        help="jsonl: normalized events; prom: histogram metrics derived "
        "from the trace in Prometheus exposition format",
    )
    export.add_argument(
        "--out", default=None, metavar="PATH",
        help="write to PATH instead of stdout",
    )

    args = parser.parse_args(argv)
    out = Output(quiet=args.quiet)
    if args.command == "info":
        return _cmd_info(args, out)
    if args.command == "benice":
        args.duration_deadline = time.monotonic() + args.duration
        return _cmd_benice(args, out)
    if args.command == "figures":
        return _cmd_figures(args, out)
    if args.command == "faults":
        return _cmd_faults(args, out)
    if args.command == "daemon":
        return _cmd_daemon(args, out)
    if args.command == "exp":
        return _cmd_exp(args, out)
    if args.command == "profile":
        return _cmd_profile(args, out)
    if args.command == "verify":
        return _cmd_verify(args, out)
    if args.command == "obs":
        return _cmd_obs(args, out)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
