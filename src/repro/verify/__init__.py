"""Conformance verification for the MS Manners reproduction.

Three complementary layers defend the codebase's correctness and
determinism contracts:

* **Differential oracles** (:mod:`repro.verify.oracles`) run optimized
  implementations against naive references
  (:mod:`repro.verify.reference`) — cached sign-test threshold tables vs
  direct binomial tail walks, the compacting O(1)-counter event engine vs
  a linear-scan engine, parallel vs serial trial fan-out — over seeded
  randomized workloads and flag any observable divergence.
* **Runtime invariant checkers** (:mod:`repro.verify.invariants`) attach
  to live components and verify the paper's laws on every transition:
  suspension doubling and its cap, probation duty-cycle floors, monotone
  simulation time, calibrator target finiteness, and export/import
  round-trip fidelity.
* **A determinism lint** (:mod:`repro.verify.lint`) statically forbids
  wall-clock reads, unseeded randomness, and hash-order dependence in
  ``repro.core`` and ``repro.simos``.

:mod:`repro.verify.harness` sweeps the oracles and seeded invariant
drives across seeds; ``repro verify run|lint|list`` is the CLI entry and
CI gate.  See ``docs/verification.md`` for the full design.
"""
