"""Experiment post-processing: box-plot statistics, tables, trial harness."""
