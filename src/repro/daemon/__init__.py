"""The supervised regulator daemon.

A deployable superintendent: :class:`~repro.daemon.server.RegulatorDaemon`
regulates real OS worker subprocesses over a local-socket JSON-line
protocol (:mod:`repro.daemon.protocol`), persists calibration crash-safely
through a write-ahead journal (:mod:`repro.daemon.journal`) between atomic
snapshots, and is soak-tested under seeded IPC fault injection
(:mod:`repro.daemon.chaos`, :mod:`repro.daemon.soak`) where every injected
fault must be answered by a matching recovery action in the telemetry
trace.  Workers embed :class:`~repro.daemon.client.DaemonClient`; the
canonical low-importance workloads live in :mod:`repro.daemon.worker`.
"""
