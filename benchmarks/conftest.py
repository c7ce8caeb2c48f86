"""Shared helpers for the benchmark scripts.

``bench_paper.py`` regenerates the paper's tables and figures (its results go
to ``results/learning_curves.json``; README's "Paper figures" table says which
claims hold).  The other scripts time the serving stack; each runs its
workload exactly once inside ``benchmark.pedantic(..., rounds=1,
iterations=1)`` and prints its results.
"""

from __future__ import annotations


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
