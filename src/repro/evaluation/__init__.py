"""Evaluation: metrics, the experiment runner, the paper's figures, reporting.

``repro.evaluation.experiments`` holds the one runner (specs in, one run per
seed out); ``repro.evaluation.figures`` states each table and figure of the
paper as specs, a view over the runs and the claims its shape makes.
``benchmarks/bench_paper.py`` runs them all and writes
``benchmarks/results/learning_curves.json``; README's "Paper figures" table
says which claims hold.
"""

from repro.evaluation.metrics import (
    normalized_runtime,
    per_query_speedups,
    speedup,
    workload_runtime,
)
from repro.evaluation.experiments import ExperimentRunner, ExperimentSpec
from repro.evaluation.reporting import format_series, format_table

__all__ = [
    "normalized_runtime",
    "per_query_speedups",
    "speedup",
    "workload_runtime",
    "ExperimentRunner",
    "ExperimentSpec",
    "format_series",
    "format_table",
]
