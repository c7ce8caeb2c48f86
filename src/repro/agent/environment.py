"""The environment bundle a Balsa agent trains against.

Mirrors Figure 1 of the paper: the environment is the database plus its
execution engine; the agent interacts with it only by submitting plans and
observing latencies.  The bundle also carries everything derived from the
database that agents and baselines share: statistics, the cardinality
estimator, the featuriser, a plan cache, and the training/test query sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cardinality.base import CardinalityEstimator
from repro.execution.engine import ExecutionEngine, ExecutionResult
from repro.execution.plan_cache import PlanCache
from repro.featurization.featurizer import QueryPlanFeaturizer
from repro.plans.nodes import PlanNode
from repro.sql.query import Query, QuerySet
from repro.storage.database import Database


@dataclass
class BalsaEnvironment:
    """Everything an agent needs to train on one workload + engine.

    Attributes:
        database: The populated database.
        engine: The execution engine (the RL environment proper).
        estimator: The cardinality estimator used for featurisation and by the
            simulator's cost model.
        featurizer: Query/plan featuriser shared by all models in a run.
        train_queries: The training workload.
        test_queries: The held-out test workload.
        plan_cache: Shared plan cache (paper §7) so reissued plans skip
            re-execution.
    """

    database: Database
    engine: ExecutionEngine
    estimator: CardinalityEstimator
    featurizer: QueryPlanFeaturizer
    train_queries: QuerySet
    test_queries: QuerySet
    plan_cache: PlanCache = field(default_factory=PlanCache)

    def query_by_name(self, name: str) -> Query:
        """Look up a query from either split by name."""
        for split in (self.train_queries, self.test_queries):
            try:
                return split.by_name(name)
            except KeyError:
                continue
        raise KeyError(f"no query named {name!r} in this environment")

    def execute(
        self, query: Query, plan: PlanNode, timeout: float | None = None
    ) -> tuple[ExecutionResult, bool]:
        """Execute a plan through the shared plan cache.

        Args:
            query: The query.
            plan: The physical plan.
            timeout: Optional latency budget.

        Returns:
            ``(result, was_cached)``.  Cached executions cost no additional
            simulated wall-clock time.
        """
        # Keyed by the query's fingerprint, never its client-chosen name: two
        # structurally different queries may share a name.
        key = (query.fingerprint(), plan.fingerprint())
        cached = self.plan_cache.lookup(*key, timeout)
        if cached is not None:
            return cached, True
        result = self.engine.execute(query, plan, timeout=timeout)
        self.plan_cache.store(*key, result, timeout)
        return result, False
