"""The paper's experiments: scenario functions and the declarative platform.

:mod:`repro.experiments.scenarios` holds the reusable per-trial scenario
functions (section 9); :mod:`repro.experiments.ablations` the
design-choice ablation trials (sections 4.1-4.2); and
:mod:`repro.experiments.spec` the declarative :class:`ExperimentSpec`
registry plus the single runner that fans any spec's cross product
through the parallel trial engine.
"""
