"""repro — reproduction of "Progress-based regulation of low-importance processes".

John R. Douceur and William J. Bolosky, SOSP'99 (the "MS Manners" paper).

The package is organized as:

* :mod:`repro.core` — the control system itself: statistical rate
  comparison, automatic target calibration, exponential suspension,
  multi-metric regression, and multi-thread/process orchestration.
* :mod:`repro.simos` — a discrete-event simulated operating system (CPU
  scheduler, disk model, shared SCSI bus, filesystem with change journal,
  performance counters) on which the paper's experiments are reproduced.
* :mod:`repro.apps` — the paper's applications: disk defragmenter, SIS
  Groveler, database server, installer, dummy loads, and the section-5
  exemplar applications.
* :mod:`repro.benice` — external regulation of unmodified applications via
  performance counters.
* :mod:`repro.realtime` — a wall-clock adapter regulating real Python
  threads with the standard library only.
* :mod:`repro.analysis` — box-plot statistics, tables, and the experiment
  harness behind the benchmark suite.

Quick start::

    from repro import Manners

    manners = Manners()
    for chunk in work:
        handle(chunk)
        done += len(chunk)
        pause = manners.testpoint([done])
        if pause:
            time.sleep(pause)
"""

__version__ = "1.0.0"

__all__ = ["Manners", "__version__"]


def __getattr__(name: str):
    """Resolve ``Manners`` on first use (PEP 562).

    Every ``repro.*`` import runs this module, so an eager import would load
    the regulator into processes that never regulate, such as the daemon's
    workers.
    """
    if name == "Manners":
        from repro.core.library import Manners

        return Manners
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
