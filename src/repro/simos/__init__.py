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

from repro.simos.bus import Bus, BusStats
from repro.simos.cpu import CPU, CpuPriority, CpuStats
from repro.simos.disk import CDROM_PARAMS, Disk, DiskParams, DiskStats
from repro.simos.effects import (
    Condition,
    Delay,
    DiskRead,
    DiskWrite,
    Effect,
    SignalCondition,
    UseCPU,
    WaitCondition,
    Yield,
)
from repro.simos.engine import Engine, EventHandle, SimulationError
from repro.simos.filesystem import ChangeRecord, Extent, SimFile, Volume, populate_volume
from repro.simos.kernel import Kernel, SimThread, ThreadState, make_engine
from repro.simos.memory import MemoryManager, TouchMemory
from repro.simos.network import NetSend, NetworkLink, NetworkStats
from repro.simos.perfcounters import PerfCounter, PerfCounterRegistry
from repro.simos.sim_manners import MannersTestpoint, SetThreadPriority, SimManners
from repro.simos.trace import DutyTrace, TestpointRecord, TestpointTrace
from repro.simos.wheel import EventCore, WheelEngine
from repro.simos.workload import Burst, bursty_schedule, busy_fraction, is_busy

__all__ = [
    "Burst",
    "Bus",
    "BusStats",
    "CDROM_PARAMS",
    "CPU",
    "ChangeRecord",
    "Condition",
    "CpuPriority",
    "CpuStats",
    "Delay",
    "Disk",
    "DiskParams",
    "DiskRead",
    "DiskStats",
    "DiskWrite",
    "DutyTrace",
    "Effect",
    "Engine",
    "EventCore",
    "EventHandle",
    "Extent",
    "Kernel",
    "MannersTestpoint",
    "MemoryManager",
    "NetSend",
    "NetworkLink",
    "NetworkStats",
    "PerfCounter",
    "PerfCounterRegistry",
    "SetThreadPriority",
    "SignalCondition",
    "SimFile",
    "SimManners",
    "SimThread",
    "SimulationError",
    "TestpointRecord",
    "TestpointTrace",
    "ThreadState",
    "TouchMemory",
    "UseCPU",
    "Volume",
    "WaitCondition",
    "WheelEngine",
    "Yield",
    "bursty_schedule",
    "busy_fraction",
    "is_busy",
    "make_engine",
    "populate_volume",
]
