"""The paper's applications, rebuilt on the simulated OS.

Low-importance applications (regulated, or externally regulable via
performance counters):

* :class:`~repro.apps.defragmenter.Defragmenter` — section 8's disk
  defragmenter (metrics: blocks moved, move operations);
* :class:`~repro.apps.groveler.Groveler` — section 8's SIS Groveler
  (metrics: read operations, bytes read; unregulated journal thread);
* the section-5 exemplars: :class:`~repro.apps.indexer.ContentIndexer`
  (concurrent metrics), :class:`~repro.apps.archiver.Archiver` (phased
  metrics), :class:`~repro.apps.compressor.Compressor` (single metric),
  :class:`~repro.apps.scanner.VirusScanner`.

High-importance applications (the contention victims):

* :class:`~repro.apps.database.DatabaseServer` — SQL-Server stand-in
  running a TPC-C-style bulk load;
* :class:`~repro.apps.installer.Installer` — Office-Setup stand-in
  installing from a CD device.

Synthetic loads: :class:`~repro.apps.dummyload.DiskHog` and
:class:`~repro.apps.dummyload.CpuHog` replay busy/idle schedules for the
isolation and calibration experiments.
"""
