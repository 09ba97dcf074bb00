"""Experiment harness: Table 1 configuration, runner, results.

- :mod:`repro.experiments.config` -- ``ExperimentConfig``, mirroring
  the paper's Table 1 parameter for parameter;
- :mod:`repro.experiments.runner` -- builds a world (simulator, topology,
  landmark binner, churn, CDN system) and runs it to the horizon;
- :mod:`repro.experiments.results` -- JSON-serializable result records.
"""
