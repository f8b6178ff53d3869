"""End-to-end daemon tests: live Unix socket, real client, injected faults.

The daemon runs on an event loop in a background thread; the tests speak
to it exactly the way workers and operators do — through
:class:`DaemonClient` and :class:`ControlClient` over the socket.  Chaos
is armed through the control protocol's ``inject`` op so the tests cross
no thread boundary into the daemon's internals.
"""

import asyncio
import shutil
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.core.errors import ConfigError
from repro.daemon.client import ControlClient, DaemonClient
from repro.daemon.journal import StateJournal, state_digest
from repro.daemon.protocol import PROTOCOL_VERSION, decode_frame, encode_frame
from repro.daemon.server import RegulatorDaemon
from repro.daemon.soak import match_faults, soak_config
from repro.obs.events import AnomalyDetected, FaultInjected, RecoveryAction
from repro.obs.sinks import MemorySink
from repro.obs.telemetry import Telemetry


@pytest.fixture
def rundir():
    # Unix socket paths are capped near 108 bytes; pytest's tmp_path can
    # blow that, so bind under /tmp.
    path = Path(tempfile.mkdtemp(prefix="reprod-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


class LiveDaemon:
    """One daemon serving on a background event-loop thread."""

    def __init__(self, rundir: Path, **kwargs) -> None:
        self.socket_path = str(rundir / "daemon.sock")
        self.sink = MemorySink()
        kwargs.setdefault("config", soak_config())
        kwargs.setdefault("heartbeat_interval", 0.2)
        kwargs.setdefault("telemetry", Telemetry(sink=self.sink, label="daemon"))
        self.daemon = RegulatorDaemon(self.socket_path, **kwargs)
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "LiveDaemon":
        ready = threading.Event()  # duck-types asyncio.Event for run()
        self._thread = threading.Thread(
            target=asyncio.run, args=(self.daemon.run(ready=ready),), daemon=True
        )
        self._thread.start()
        assert ready.wait(10.0), "daemon never opened its socket"
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            with ControlClient(self.socket_path, connect_timeout=2.0) as control:
                control.request("stop")
        except OSError:
            pass  # already drained
        assert self._thread is not None
        self._thread.join(10.0)
        assert not self._thread.is_alive(), "daemon did not drain"

    def inject(self, kind: str, target: str, param: float = 0.0) -> None:
        with ControlClient(self.socket_path) as control:
            reply = control.request("inject", kind=kind, target=target, param=param)
        assert reply["op"] == "ok", reply

    def events(self):
        return list(self.sink.events)


class TestRoundTrip:
    def test_testpoints_status_and_drain(self, rundir):
        with LiveDaemon(rundir) as live:
            with DaemonClient(live.socket_path, "w1") as client:
                done = 0
                for _ in range(3):
                    done += 1
                    reply = client.testpoint([float(done)])
                    assert reply["op"] == "decision"
                    assert reply["processed"] in (True, False)
                with ControlClient(live.socket_path) as control:
                    status = control.request("status")
                assert status["counters"]["testpoints"] >= 3
                assert "w1" in status["workers"]

    def test_protocol_mismatch_is_rejected(self, rundir):
        with LiveDaemon(rundir) as live:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(5.0)
                raw.connect(live.socket_path)
                raw.sendall(encode_frame({"op": "hello", "proto": 99, "role": "worker"}))
                reply = decode_frame(raw.makefile("rb").readline().rstrip(b"\n"))
            assert reply["op"] == "reject"
            assert "version" in reply["reason"]

    def test_mistyped_testpoint_fields_are_protocol_errors(self, rundir):
        bad_frames = [
            {"metrics": "12"},  # a string would be read character by character
            {"metrics": [True, 1.0]},
            {"metrics": {"a": 1.0}},
            {"metrics": [10**400]},  # no float can hold it
            {"seq": 2.7},
            {"seq": True},
            {"index": 1.5},
            {"index": False},
        ]
        with LiveDaemon(rundir) as live:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(5.0)
                raw.connect(live.socket_path)
                replies = raw.makefile("rb")
                hello = {"op": "hello", "proto": PROTOCOL_VERSION, "role": "worker", "name": "w1"}
                raw.sendall(encode_frame(hello))
                assert decode_frame(replies.readline().rstrip(b"\n"))["op"] == "welcome"
                for fields in bad_frames:
                    frame = {"op": "testpoint", "seq": 1, "metrics": [1.0, 2.0], **fields}
                    raw.sendall(encode_frame(frame))
                # None of them reached the supervisor: seq 1 is still fresh,
                # and metric set 0 takes its arity from this frame.
                raw.sendall(encode_frame({"op": "testpoint", "seq": 1, "metrics": [5.0]}))
                reply = decode_frame(replies.readline().rstrip(b"\n"))
                assert reply["op"] == "decision" and reply["seq"] == 1
                assert "error" not in reply
                counters = _counters_when(live, lambda c: c["testpoints"] >= 1)
        assert counters["protocol_errors"] == len(bad_frames)
        assert counters["testpoints"] == 1
        bad = [e for e in live.events() if getattr(e, "anomaly", None) == "bad_frame"]
        assert len(bad) == len(bad_frames)

    def test_mistyped_hello_priority_is_a_protocol_error(self, rundir):
        # "high" and [1] raised out of the connection callback with no
        # reply and no count; 1.5 and True were welcomed as priority 1.
        priorities = ["high", [1], 1.5, True]
        with LiveDaemon(rundir) as live:
            for priority in priorities:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                    raw.settimeout(5.0)
                    raw.connect(live.socket_path)
                    hello = {"op": "hello", "proto": PROTOCOL_VERSION, "role": "worker",
                             "name": "w1", "priority": priority}
                    raw.sendall(encode_frame(hello))
                    # Closed without a welcome.
                    assert raw.makefile("rb").readline() == b""
            counters = _counters_when(live, lambda c: c["protocol_errors"] >= len(priorities))
            with ControlClient(live.socket_path) as control:
                workers = control.request("status")["workers"]
        assert counters["protocol_errors"] == len(priorities)
        assert "w1" not in workers
        errors = [e for e in live.events() if getattr(e, "anomaly", None) == "protocol_error"]
        assert len(errors) == len(priorities)
        assert all("priority" in e.detail for e in errors)

    def test_vanished_worker_releases_its_slot(self, rundir):
        with LiveDaemon(rundir) as live:
            client = DaemonClient(live.socket_path, "w1")
            client.connect()
            client.testpoint([1.0])
            client._sock.close()  # crash, not a polite bye
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with ControlClient(live.socket_path) as control:
                    if "w1" not in control.request("status")["workers"]:
                        break
                time.sleep(0.05)
            else:
                pytest.fail("dead worker never cleaned up")
        actions = [e.action for e in live.events() if isinstance(e, RecoveryAction)]
        assert "slot_released" in actions


class TestChaosAbsorption:
    def test_dropped_request_recovered_by_retransmit(self, rundir):
        with LiveDaemon(rundir) as live:
            with DaemonClient(
                live.socket_path, "w1", message_timeout=0.3
            ) as client:
                client.testpoint([1.0])
                live.inject("msg_drop", "w1")
                reply = client.testpoint([2.0])
                assert reply["op"] == "decision"
                assert client.stats["resends"] >= 1
                client.testpoint([3.0])
        events = live.events()
        injected, unmatched = match_faults(events)
        assert [f.fault for f in injected] == ["msg_drop"]
        assert not unmatched

    def test_duplicate_and_torn_replies_absorbed(self, rundir):
        with LiveDaemon(rundir) as live:
            with DaemonClient(
                live.socket_path, "w1", message_timeout=0.3
            ) as client:
                client.testpoint([1.0])
                live.inject("msg_dup", "w1")
                live.inject("frame_truncate", "w1")
                for done in range(2, 8):
                    client.testpoint([float(done)])
                assert client.stats["dups"] >= 1
                assert client.stats["bad_frames"] >= 1
        events = live.events()
        injected, unmatched = match_faults(events)
        assert {f.fault for f in injected} == {"msg_dup", "frame_truncate"}
        assert not unmatched

    def test_peer_hang_recovered(self, rundir):
        with LiveDaemon(rundir) as live:
            with DaemonClient(
                live.socket_path, "w1", message_timeout=0.3
            ) as client:
                client.testpoint([1.0])
                live.inject("peer_hang", "w1", param=0.8)
                client.testpoint([2.0])
                client.testpoint([3.0])
        events = live.events()
        faults = [e for e in events if isinstance(e, FaultInjected)]
        assert [f.fault for f in faults] == ["peer_hang"]
        _, unmatched = match_faults(events)
        assert not unmatched


class TestPersistence:
    def test_drain_snapshots_and_restart_restores_bit_identically(self, rundir):
        state_dir = rundir / "state"
        first = LiveDaemon(
            rundir,
            state_dir=str(state_dir),
            journal_interval=0.05,
            save_interval=3600.0,
            fsync_journal=False,
        )
        with first as live:
            with DaemonClient(live.socket_path, "w1", app_id="app") as client:
                for done in range(1, 9):
                    client.testpoint([float(done) * 3])
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    with ControlClient(live.socket_path) as control:
                        if control.request("status")["counters"]["journal_appends"]:
                            break
                    time.sleep(0.05)
        # The drain compacted the journal into an atomic snapshot.
        from repro.core.persistence import TargetStore

        snapshot = TargetStore(state_dir, strict=False).load("app")
        assert snapshot is not None
        second = LiveDaemon(rundir, state_dir=str(state_dir))
        with second as live:
            with DaemonClient(live.socket_path, "w1", app_id="app") as client:
                client.ping()
                with ControlClient(live.socket_path) as control:
                    digests = control.request("digest")
        assert digests["restored"]["app"] == state_digest(snapshot)
        assert digests["current"]["app"] == digests["restored"]["app"]
        actions = [e.action for e in second.events() if isinstance(e, RecoveryAction)]
        assert "state_restored" in actions

    def test_rejected_snapshot_rebootstraps_on_a_fresh_regulator(self, rundir):
        # A journaled two-metric set whose ridge statistics hold a NaN:
        # import_state rejects it after it has already added the set.
        state_dir = rundir / "state"
        rejected = {
            "sets": {
                "0": {
                    "arity": 2,
                    "calibration": {"x": [[float("nan"), 0.0], [0.0, 1.0]], "y": [0.0, 0.0]},
                }
            }
        }
        with StateJournal(state_dir) as journal:
            journal.append("app", rejected)
        daemon = LiveDaemon(
            rundir, state_dir=str(state_dir), journal_interval=3600.0, save_interval=3600.0
        )
        with daemon as live:
            with DaemonClient(live.socket_path, "w1", app_id="app") as first:
                # One metric per testpoint: a half-imported regulator expects two.
                replies = [first.testpoint([float(done)]) for done in range(1, 4)]
                # The rejected state was dropped, so a second worker of the
                # same application starts fresh without a second rejection.
                with DaemonClient(live.socket_path, "w2", app_id="app") as second:
                    replies.append(second.testpoint([1.0]))
                with ControlClient(live.socket_path) as control:
                    digests = control.request("digest")
        assert all(r["op"] == "decision" and "error" not in r for r in replies), replies
        assert "app" not in digests["restored"]
        events = live.events()
        anomalies = [e.anomaly for e in events if isinstance(e, AnomalyDetected)]
        actions = [e.action for e in events if isinstance(e, RecoveryAction)]
        assert anomalies.count("corrupt_target") == 1
        assert "metric_error" not in anomalies
        assert actions.count("rebootstrap") == 1
        assert "reconnect_rebound" not in actions
        assert "state_restored" not in actions

    def test_journal_tier_outranks_snapshot_on_restore(self, rundir):
        state_dir = rundir / "state"
        journaled = {"schema": 1, "sets": {}}
        with StateJournal(state_dir) as journal:
            record = journal.append("app", journaled)
        daemon = LiveDaemon(rundir, state_dir=str(state_dir))
        with daemon as live:
            with DaemonClient(live.socket_path, "w1", app_id="app") as client:
                client.ping()
                with ControlClient(live.socket_path) as control:
                    digests = control.request("digest")
        assert digests["journal"]["app"] == record.digest


def _counters_when(live: LiveDaemon, ready, timeout: float = 5.0) -> dict:
    """Poll the daemon's status until ``ready(counters)``; return the counters."""
    deadline = time.monotonic() + timeout
    while True:
        with ControlClient(live.socket_path) as control:
            counters = control.request("status")["counters"]
        if ready(counters) or time.monotonic() > deadline:
            return counters
        time.sleep(0.05)


class TestPeriodicCadences:
    """The journal sweep and the snapshot each run on their own interval."""

    @pytest.mark.parametrize(
        "name", ["heartbeat_interval", "heartbeat_timeout", "journal_interval", "save_interval"]
    )
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_interval_must_be_finite_and_positive(self, rundir, name, value):
        # Zero made a background loop spin; NaN killed it or, as a timeout,
        # never evicted anyone; inf never fired.
        with pytest.raises(ConfigError, match=name):
            RegulatorDaemon(str(rundir / "d.sock"), **{name: value})

    def test_journal_sweeps_without_waiting_for_a_snapshot(self, rundir):
        with LiveDaemon(
            rundir, state_dir=str(rundir / "state"), journal_interval=0.05,
            save_interval=3600.0, fsync_journal=False,
        ) as live:
            with DaemonClient(live.socket_path, "w1", app_id="app") as client:
                client.testpoint([1.0])
                counters = _counters_when(live, lambda c: c["journal_appends"] >= 1)
        assert counters["journal_appends"] >= 1
        assert counters["snapshots"] == 0

    def test_snapshots_without_waiting_for_a_journal_sweep(self, rundir):
        # save_interval < journal_interval: a loop that snapshots only after
        # a journal sweep takes no snapshot within the hour.
        started = time.monotonic()
        with LiveDaemon(
            rundir, state_dir=str(rundir / "state"), journal_interval=3600.0,
            save_interval=0.1, fsync_journal=False,
        ) as live:
            with DaemonClient(live.socket_path, "w1", app_id="app") as client:
                client.testpoint([1.0])
                counters = _counters_when(live, lambda c: c["snapshots"] >= 3)
                elapsed = time.monotonic() - started
        assert counters["snapshots"] >= 3
        # One application, so one save per snapshot, and none before its time.
        assert counters["snapshots"] <= elapsed / 0.1 + 1
        assert counters["journal_appends"] == 0
