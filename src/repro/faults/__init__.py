"""Deterministic fault-injection harness for the regulation stack.

The paper evaluates MS Manners on healthy machines; this package probes the
implementation's behaviour on *unhealthy* ones.  A :class:`FaultPlan` is a
seeded, reproducible schedule of faults — clock steps, stalled and crashed
threads, failing disks, torn target files, raising telemetry sinks — that a
:class:`FaultInjector` fires into a running simulation.  Named end-to-end
chaos scenarios (:mod:`repro.faults.scenarios`, ``repro faults run``) pair
each fault with the resilience mechanism that must absorb it and report
pass/fail plus a determinism fingerprint through the obs event stream.

See ``docs/robustness.md`` for the fault model and the degraded-mode
contract each scenario enforces.
"""
