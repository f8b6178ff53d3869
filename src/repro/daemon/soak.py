"""Fault-injected soak harness for the regulator daemon.

``repro daemon soak`` runs each named chaos scenario against a *live*
daemon — real Unix socket, real worker subprocesses, real kill signals —
under a seeded IPC fault plan, and then audits the telemetry trace: every
:class:`~repro.obs.events.FaultInjected` event must be followed by a
:class:`~repro.obs.events.RecoveryAction` drawn from that fault kind's
allowed set (:data:`~repro.daemon.chaos.RECOVERY_ACTIONS`) for the same
target.  A fault the daemon absorbed silently, or never recovered from,
fails the run.

Two harness shapes:

* **in-process scenarios** (``ipc-chaos``, ``peer-hang``,
  ``worker-crash``) run the daemon inside the harness's event loop (the
  workers are still real subprocesses), so the trace is captured in
  memory and audited directly, with a flight recorder dumping the event
  ring around every injection for post-mortem;
* **daemon-crash** runs the daemon as a subprocess, waits for it to have
  saved calibration state, SIGKILLs the daemon mid-run, reads the digests
  of the saved target files *after* the kill (exactly what survived),
  restarts the daemon, and requires the restored digests it reports over
  control IPC to be bit-identical.

Determinism note: fault *schedules* are seeded and reproducible; the
wall-clock interleaving of a live daemon is not.  What the soak asserts
is therefore invariant under scheduling — fault/recovery pairing and
restore digests — never event counts or orderings.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.config import MannersConfig
from repro.core.errors import FaultError
from repro.core.persistence import TargetStore
from repro.daemon.chaos import RECOVERY_ACTIONS, SCENARIO_KINDS, ipc_plan
from repro.daemon.client import ControlClient
from repro.daemon.server import RegulatorDaemon, WorkerSpec, state_digest
from repro.obs.events import Event, FaultInjected, RecoveryAction
from repro.obs.flightrec import FlightRecorder
from repro.obs.sinks import MemorySink
from repro.obs.telemetry import Telemetry

__all__ = [
    "SoakRunResult",
    "SoakReport",
    "soak_config",
    "match_faults",
    "run_soak",
]

#: Worker fleet every soak run regulates: one of each canonical workload.
_FLEET = (("groveler", "g1"), ("compressor", "c1"))


def soak_config() -> MannersConfig:
    """A fast-converging configuration so short runs exercise regulation.

    The defaults are tuned for week-scale production tracking; a soak run
    needs bootstrap to finish and suspensions to appear within seconds.
    """
    return MannersConfig(
        bootstrap_testpoints=6,
        min_testpoint_interval=0.05,
        initial_suspension=0.25,
        max_suspension=2.0,
        probation_period=0.0,
        averaging_n=200,
        hung_threshold=10.0,
    )


@dataclass(slots=True)
class SoakRunResult:
    """Outcome of one (scenario, seed) soak run."""

    scenario: str
    seed: int
    duration: float
    #: Faults that actually took effect (FaultInjected events / kills).
    injected: int = 0
    #: Injected faults whose matching recovery appeared in the trace.
    matched: int = 0
    #: Human-readable descriptions of injected-but-unrecovered faults.
    unmatched: list[str] = field(default_factory=list)
    #: Planned faults that never found a frame to fire on.
    unfired: int = 0
    #: Total recovery actions in the trace.
    recoveries: int = 0
    #: daemon-crash only: per-app digest comparison.
    restore: dict[str, Any] | None = None
    #: Flight-recorder dump files written during the run.
    flight_dumps: list[str] = field(default_factory=list)
    ok: bool = False
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form of this run, as written to the report file."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "duration": self.duration,
            "injected": self.injected,
            "matched": self.matched,
            "unmatched": list(self.unmatched),
            "unfired": self.unfired,
            "recoveries": self.recoveries,
            "restore": self.restore,
            "flight_dumps": list(self.flight_dumps),
            "ok": self.ok,
            "note": self.note,
        }


@dataclass(slots=True)
class SoakReport:
    """All runs of one ``repro daemon soak`` invocation."""

    runs: list[SoakRunResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.runs) and all(run.ok for run in self.runs)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form of the whole report."""
        return {"ok": self.ok, "runs": [run.to_dict() for run in self.runs]}


def match_faults(
    events: Sequence[Event],
) -> tuple[list[FaultInjected], list[FaultInjected]]:
    """Pair every injected fault with an allowed recovery for its target.

    Returns ``(injected, unmatched)``.  Each recovery event satisfies at
    most one fault (two dropped messages need two retransmissions), and a
    recovery only counts if it happened at-or-after its fault and names
    the same target in its ``detail``.
    """
    faults = [
        e
        for e in events
        if isinstance(e, FaultInjected)
        and e.fault in RECOVERY_ACTIONS
        and e.fault != "daemon_kill"
    ]
    recoveries = [e for e in events if isinstance(e, RecoveryAction)]
    used: set[int] = set()
    unmatched: list[FaultInjected] = []
    for fault in faults:
        allowed = RECOVERY_ACTIONS[fault.fault]
        hit = None
        for i, recovery in enumerate(recoveries):
            if i in used:
                continue
            if recovery.t + 1e-9 < fault.t:
                continue
            if recovery.action not in allowed:
                continue
            if fault.target and recovery.detail != fault.target:
                continue
            hit = i
            break
        if hit is None:
            unmatched.append(fault)
        else:
            used.add(hit)
    return faults, unmatched


def run_soak(
    scenarios: Sequence[str],
    seeds: Sequence[int],
    duration: float,
    workdir: str | os.PathLike[str],
    grace: float = 12.0,
    say: Callable[[str], None] | None = None,
) -> SoakReport:
    """Run every (scenario, seed) combination; returns the full report."""
    report = SoakReport()
    base = Path(workdir)
    for scenario in scenarios:
        if scenario not in SCENARIO_KINDS:
            raise FaultError(
                f"unknown soak scenario {scenario!r}; "
                f"known: {', '.join(sorted(SCENARIO_KINDS))}"
            )
    for scenario in scenarios:
        for seed in seeds:
            rundir = base / f"{scenario}-s{seed}"
            rundir.mkdir(parents=True, exist_ok=True)
            if say is not None:
                say(f"soak: {scenario} seed={seed} duration={duration:g}s")
            if scenario == "daemon-crash":
                result = _run_daemon_crash(seed, duration, rundir, grace)
            else:
                result = asyncio.run(
                    _run_in_process(scenario, seed, duration, rundir, grace)
                )
            report.runs.append(result)
            if say is not None:
                status = "ok" if result.ok else "FAIL"
                say(
                    f"soak: {scenario} seed={seed}: {status} "
                    f"(injected={result.injected} matched={result.matched} "
                    f"unmatched={len(result.unmatched)})"
                )
    # Persist the machine-readable report next to the run directories so
    # a CI artifact upload of the workdir is self-describing.
    report_path = base / "soak-report.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return report


# -- in-process scenarios (daemon in the harness loop, workers real) ----------
async def _run_in_process(
    scenario: str, seed: int, duration: float, rundir: Path, grace: float
) -> SoakRunResult:
    result = SoakRunResult(scenario=scenario, seed=seed, duration=duration)
    socket_path = str(rundir / "daemon.sock")
    state_dir = rundir / "state"
    dump_dir = rundir / "flightrec"
    plan = ipc_plan(scenario, seed, duration, targets=[name for _, name in _FLEET])
    sink = MemorySink()
    recorder = FlightRecorder(capacity=4096, dump_dir=dump_dir)
    telemetry = Telemetry(sink=sink, label="daemon", flight_recorder=recorder)
    daemon = RegulatorDaemon(
        socket_path,
        state_dir=str(state_dir),
        config=soak_config(),
        telemetry=telemetry,
        workers=[WorkerSpec(kind, name) for kind, name in _FLEET],
        chaos_plan=plan,
        heartbeat_interval=0.25,
        heartbeat_timeout=2.5,
        save_interval=0.25,
        restart_backoff=0.25,
        restart_backoff_cap=2.0,
    )
    ready = asyncio.Event()
    run_task = asyncio.create_task(daemon.run(ready=ready))
    await ready.wait()
    await asyncio.sleep(duration)
    # Give in-flight faults time to fire and their recoveries to land
    # before auditing; stop early once the books balance.
    deadline = time.monotonic() + grace
    planned = len(plan)
    while time.monotonic() < deadline:
        injected, unmatched = match_faults(sink.events)
        if len(injected) >= planned and not unmatched:
            break
        await asyncio.sleep(0.25)
    daemon.request_drain("soak-complete")
    await run_task
    telemetry.close()
    injected, unmatched = match_faults(sink.events)
    result.injected = len(injected)
    result.matched = len(injected) - len(unmatched)
    result.unmatched = [
        f"{f.fault} against {f.target or '?'} at t={f.t:.3f} had no "
        f"recovery in {sorted(RECOVERY_ACTIONS[f.fault])}"
        for f in unmatched
    ]
    result.unfired = max(planned - len(injected), 0)
    result.recoveries = sum(1 for e in sink.events if isinstance(e, RecoveryAction))
    result.flight_dumps = sorted(
        str(p) for p in dump_dir.glob("*.jsonl")
    ) if dump_dir.is_dir() else []
    result.ok = not unmatched and (planned == 0 or len(injected) > 0)
    if planned and not injected:
        result.note = "no planned fault ever fired"
    elif result.unfired:
        result.note = f"{result.unfired} planned fault(s) never fired (run too short)"
    return result


# -- daemon-crash (daemon as a subprocess; the harness wields kill -9) --------
def _serve_command(socket_path: Path, state_dir: Path) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "--quiet",
        "daemon",
        "serve",
        "--socket",
        str(socket_path),
        "--state-dir",
        str(state_dir),
        "--workers",
        ",".join(f"{kind}:{name}" for kind, name in _FLEET),
        "--fast",
        "--save-interval",
        "0.2",
    ]


def _await_socket(socket_path: Path, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if socket_path.exists():
            probe = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            try:
                probe.settimeout(1.0)
                probe.connect(str(socket_path))
                return True
            except OSError:
                pass
            finally:
                probe.close()
        time.sleep(0.1)
    return False


def _poll_control(
    socket_path: Path,
    timeout: float,
    predicate: Callable[[ControlClient], bool],
) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        control = ControlClient(str(socket_path), connect_timeout=2.0, timeout=2.0)
        try:
            if predicate(control):
                return True
        except Exception:
            pass
        finally:
            control.close()
        time.sleep(0.3)
    return False


def _run_daemon_crash(
    seed: int, duration: float, rundir: Path, grace: float
) -> SoakRunResult:
    result = SoakRunResult(scenario="daemon-crash", seed=seed, duration=duration)
    socket_path = rundir / "daemon.sock"
    state_dir = rundir / "state"
    command = _serve_command(socket_path, state_dir)
    setup_timeout = max(duration, 20.0) + grace
    proc = subprocess.Popen(command)
    restarted: subprocess.Popen | None = None
    try:
        if not _await_socket(socket_path, setup_timeout):
            result.note = "daemon never opened its socket"
            return result

        store = TargetStore(state_dir)
        app_ids = [name for _, name in _FLEET]

        def saved(control: ControlClient) -> bool:
            status = control.request("status")
            counters = status.get("counters", {})
            return (
                counters.get("snapshots", 0) >= len(_FLEET)
                and counters.get("testpoints", 0) >= 8
                and all(store.path_for(app_id).exists() for app_id in app_ids)
            )

        if not _poll_control(socket_path, setup_timeout, saved):
            result.note = "daemon never saved calibration state"
            return result
        # The injection: an unceremonious kill, no drain, no flush.
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10.0)
        result.injected = 1
        # Read the target files only now (strictly: a damaged one fails the
        # run) — their content *after* the kill is exactly the durable
        # state the restart must reproduce.
        expected = {app_id: state_digest(store.load(app_id)) for app_id in app_ids}
        restarted = subprocess.Popen(command)
        if not _await_socket(socket_path, setup_timeout):
            result.note = "restarted daemon never opened its socket"
            return result
        observed: dict[str, str] = {}

        def restored(control: ControlClient) -> bool:
            reply = control.request("digest")
            observed.clear()
            observed.update(reply.get("restored", {}))
            return set(observed) >= set(expected)

        recovered = _poll_control(socket_path, setup_timeout, restored)
        result.restore = {
            app_id: {
                "expected": digest,
                "restored": observed.get(app_id),
                "match": observed.get(app_id) == digest,
            }
            for app_id, digest in expected.items()
        }
        result.recoveries = 1 if recovered else 0
        all_match = recovered and all(
            entry["match"] for entry in result.restore.values()
        )
        if all_match:
            result.matched = 1
            result.ok = True
        else:
            result.unmatched = [
                f"daemon_kill: state for {app_id} not restored bit-identically "
                f"(expected {entry['expected'][:12]}, got "
                f"{str(entry['restored'])[:12]})"
                for app_id, entry in result.restore.items()
                if not entry["match"]
            ] or ["daemon_kill: restarted daemon never reported restored digests"]
        with ControlClient(str(socket_path), timeout=5.0) as control:
            control.request("stop")
        restarted.wait(timeout=15.0)
        restarted = None
    except Exception as exc:
        if not result.note:
            result.note = f"harness error: {exc}"
        result.ok = False
    finally:
        for p in (proc, restarted):
            if p is not None and p.poll() is None:
                p.kill()
                with contextlib.suppress(subprocess.TimeoutExpired, OSError):
                    p.wait(timeout=5.0)
    return result
