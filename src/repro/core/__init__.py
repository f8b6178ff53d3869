"""The MS Manners control system: progress-based regulation.

This package implements the paper's primary contribution as pure,
substrate-independent feedback logic.  The main entry points are:

* :class:`~repro.core.library.Manners` — the single-call application facade
  (the paper's ``Testpoint`` interface) for one thread;
* :class:`~repro.core.controller.ThreadRegulator` — the full per-thread
  state machine, for substrates that manage their own time and blocking;
* :class:`~repro.core.supervisor.Supervisor` and
  :class:`~repro.core.superintendent.Superintendent` — time-multiplex
  isolation across threads and processes;
* :class:`~repro.core.config.MannersConfig` — tuning parameters with the
  paper's experimental defaults.

See DESIGN.md for the component-by-component mapping to the paper.
"""
