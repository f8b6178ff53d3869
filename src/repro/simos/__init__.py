"""Simulated-OS substrate for reproducing the paper's experiments.

A discrete-event machine with the same moving parts as the paper's
testbed: one CPU with strict-priority scheduling, disks with realistic
seek/rotation/transfer timing sharing a SCSI-style bus, a filesystem with
extents and a change journal, performance counters, and an externally
usable thread suspend/resume (debug) interface.

Application code is written as generators yielding effects; see
:mod:`repro.simos.effects`.  The MS Manners control system runs against
simulated time through :mod:`repro.simos.sim_manners`.
"""
