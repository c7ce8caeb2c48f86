"""Workload-level and per-query performance metrics (paper §8.1, "Metrics")."""

from __future__ import annotations

from typing import Mapping

import numpy as np


def workload_runtime(latencies: Mapping[str, float]) -> float:
    """Workload runtime: the sum of per-query latencies."""
    return float(sum(latencies.values()))


def normalized_runtime(
    latencies: Mapping[str, float], expert_latencies: Mapping[str, float]
) -> float:
    """Workload runtime normalised by the expert's runtime on the same queries."""
    expert_total = workload_runtime(
        {name: expert_latencies[name] for name in latencies}
    )
    if expert_total <= 0:
        raise ValueError("expert workload runtime must be positive")
    return workload_runtime(latencies) / expert_total


def speedup(
    latencies: Mapping[str, float], expert_latencies: Mapping[str, float]
) -> float:
    """Workload speedup over the expert (the paper's Figure 6/16 metric)."""
    return 1.0 / normalized_runtime(latencies, expert_latencies)


def per_query_speedups(
    latencies: Mapping[str, float], expert_latencies: Mapping[str, float]
) -> dict[str, float]:
    """Per-query speedups over the expert (Figure 9)."""
    speedups = {}
    for name, latency in latencies.items():
        if latency <= 0:
            raise ValueError(f"non-positive latency for query {name!r}")
        speedups[name] = expert_latencies[name] / latency
    return speedups


def median_and_range(values: list[float]) -> tuple[float, float, float]:
    """Median plus (min, max) range, the aggregation used across seeded runs."""
    array = np.asarray(values, dtype=np.float64)
    return float(np.median(array)), float(array.min()), float(array.max())
