"""Batched simulation data collection via dynamic programming (paper §3.2).

For every training query, the Selinger bottom-up DP enumerates plans over the
bushy space; *every* enumerated candidate (not only the per-subset winners)
becomes a data point ``(query=T, plan=T, cost=C)`` where ``query=T`` is the
original query restricted to the candidate's tables.  The DP emits several
candidates per alias set (every split of the set and every operator), so a set
is restricted once and its candidates share that one
:class:`~repro.sql.query.Query` — and the fingerprint the featuriser's caches
key on.  Each point is then expanded by subplan augmentation.  Queries
joining ``skip_tables_above`` or more relations are skipped, exactly as the
paper skips queries with ≥ 12 tables to bound DP runtime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.costmodel.base import CostModel
from repro.optimizer.dp import DynamicProgrammingOptimizer
from repro.plans.nodes import PlanNode
from repro.simulation.augment import augment_data_point
from repro.sql.query import Query
from repro.utils.rng import new_rng


@dataclass
class SimulationDataPoint:
    """One simulation training example.

    Attributes:
        query: The (restricted) query.
        plan: The plan or subplan.
        cost: The overall cost label shared by the whole trajectory.
    """

    query: Query
    plan: PlanNode
    cost: float


@dataclass
class SimulationDataset:
    """The collected simulation dataset ``D_sim``.

    Attributes:
        points: All training points (after augmentation).
        collection_seconds: Wall-clock time spent enumerating and augmenting.
        queries_collected: Queries that contributed data.
        queries_skipped: Queries skipped for exceeding the table-count limit.
    """

    points: list[SimulationDataPoint] = field(default_factory=list)
    collection_seconds: float = 0.0
    queries_collected: int = 0
    queries_skipped: int = 0

    def __len__(self) -> int:
        return len(self.points)

    def labels(self) -> np.ndarray:
        """All cost labels as an array."""
        return np.asarray([p.cost for p in self.points], dtype=np.float64)

    def merge(self, other: "SimulationDataset") -> "SimulationDataset":
        """Concatenate two datasets (used when pooling workloads)."""
        return SimulationDataset(
            points=self.points + other.points,
            collection_seconds=self.collection_seconds + other.collection_seconds,
            queries_collected=self.queries_collected + other.queries_collected,
            queries_skipped=self.queries_skipped + other.queries_skipped,
        )


def collect_simulation_data(
    queries: Iterable[Query],
    cost_model: CostModel,
    skip_tables_above: int = 12,
    max_points_per_query: int | None = 20_000,
    seed: int = 0,
) -> SimulationDataset:
    """Collect ``D_sim`` for a training workload.

    Args:
        queries: Training queries.
        cost_model: The simulator (normally :class:`~repro.costmodel.cout.CoutCostModel`).
        skip_tables_above: Skip queries with at least this many relations
            (paper sets n = 12).
        max_points_per_query: Optional cap on augmented points kept per query
            (uniformly subsampled) to bound memory at large scales.
        seed: Seed for the subsampling.

    Returns:
        The collected :class:`SimulationDataset`.
    """
    rng = new_rng(seed)
    dataset = SimulationDataset()
    started = time.perf_counter()
    enumerator = DynamicProgrammingOptimizer(cost_model, physical=False)
    for query in queries:
        if query.num_tables >= skip_tables_above:
            dataset.queries_skipped += 1
            continue
        result = enumerator.optimize(query, collect_all=True)
        query_points: list[SimulationDataPoint] = []
        restrictions: dict[frozenset[str], Query] = {}
        for candidate in result.enumerated:
            restricted = restrictions.get(candidate.aliases)
            if restricted is None:
                restricted = restrictions[candidate.aliases] = query.restricted_to(
                    candidate.aliases
                )
            for sub_query, subplan, cost in augment_data_point(
                restricted, candidate.plan, candidate.cost
            ):
                query_points.append(
                    SimulationDataPoint(query=sub_query, plan=subplan, cost=cost)
                )
        if (
            max_points_per_query is not None
            and len(query_points) > max_points_per_query
        ):
            keep = rng.choice(
                len(query_points), size=max_points_per_query, replace=False
            )
            query_points = [query_points[i] for i in sorted(keep)]
        dataset.points.extend(query_points)
        dataset.queries_collected += 1
    dataset.collection_seconds = time.perf_counter() - started
    return dataset
