"""Evaluation: metrics, experiment runners and text reporting.

``repro.evaluation.experiments`` contains one runner per table/figure of the
paper's evaluation section; each benchmark under ``benchmarks/`` calls one
runner at a scaled-down configuration and prints the corresponding rows /
series.  ``EXPERIMENTS.md`` records the paper-vs-measured comparison.
"""

from repro.evaluation.metrics import (
    normalized_runtime,
    per_query_speedups,
    speedup,
    workload_runtime,
)
from repro.evaluation.experiments import ExperimentScale
from repro.evaluation import experiments
from repro.evaluation.reporting import format_series, format_table

__all__ = [
    "normalized_runtime",
    "per_query_speedups",
    "speedup",
    "workload_runtime",
    "ExperimentScale",
    "experiments",
    "format_series",
    "format_table",
]
