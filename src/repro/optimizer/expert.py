"""The expert optimizer baselines (PostgreSQL-like and CommDB-like).

Both experts combine the PostgreSQL-style
:class:`~repro.costmodel.expert.ExpertCostModel` with exhaustive DP (greedy
pairing beyond a table-count threshold, mirroring PostgreSQL's GEQO cutover).
The only difference between the two, as in the paper (§8.2), is the size of
the search space: the PostgreSQL-like expert explores bushy plans while the
CommDB-like expert is restricted to left-deep plans (the paper estimates the
commercial system's hintable space to be ~1000x smaller).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cardinality.base import CardinalityEstimator
from repro.cardinality.estimator import HistogramEstimator
from repro.costmodel.base import CostModel
from repro.costmodel.expert import ExpertCostModel
from repro.execution.hints import HintSet
from repro.optimizer.dp import DynamicProgrammingOptimizer
from repro.optimizer.greedy import GreedyOptimizer
from repro.planning.envelope import PlanRequest, PlanResult
from repro.plans.nodes import PlanNode
from repro.sql.query import Query
from repro.storage.database import Database


@dataclass
class ExpertPlannerStats:
    """Bookkeeping about an expert optimizer's planning calls."""

    queries_planned: int = 0
    dp_planned: int = 0
    greedy_planned: int = 0
    total_planning_seconds: float = 0.0


class ExpertOptimizer:
    """A classical cost-based optimizer over the simulated engine.

    Args:
        name: Display name (``"postgres"`` / ``"commdb"``).
        cost_model: The expert's cost model.
        left_deep_only: Restrict the search space to left-deep plans.
        max_dp_tables: Above this relation count, fall back to greedy pairing
            (PostgreSQL's GEQO analogue).
        hint_set: Optional operator restrictions (used by the Bao baseline to
            steer this expert).
    """

    def __init__(
        self,
        name: str,
        cost_model: CostModel,
        left_deep_only: bool = False,
        max_dp_tables: int = 10,
        hint_set: HintSet | None = None,
    ):
        self.name = name
        self.cost_model = cost_model
        self.left_deep_only = left_deep_only
        self.max_dp_tables = max_dp_tables
        self.hint_set = hint_set
        self.stats = ExpertPlannerStats()
        self._plan_cache: dict[tuple[str, str], tuple[PlanNode, float]] = {}

    def plan(self, request: PlanRequest) -> PlanResult:
        """Plan ``request.query`` (the :class:`Planner` protocol entry).

        The expert keeps only its cost-model-optimal plan, so the result holds
        one plan regardless of ``request.k``.
        """
        started = time.perf_counter()
        plan, cost = self.optimize_with_cost(request.query)
        return PlanResult(
            plans=[plan],
            predicted_latencies=[cost],
            planning_seconds=time.perf_counter() - started,
            planner_name=self.name,
        )

    def optimize_with_cost(self, query: Query) -> tuple[PlanNode, float]:
        """Plan ``query`` and return ``(plan, model_cost)``.

        Plans are cached by the query's fingerprint, not its name: two
        different queries may share a client-chosen name.
        """
        hint_name = self.hint_set.name if self.hint_set else "all"
        cache_key = (query.fingerprint(), hint_name)
        if cache_key in self._plan_cache:
            return self._plan_cache[cache_key]
        started = time.perf_counter()
        if query.num_tables <= self.max_dp_tables:
            dp = DynamicProgrammingOptimizer(
                self.cost_model,
                left_deep_only=self.left_deep_only,
                hint_set=self.hint_set,
                physical=True,
            )
            result = dp.optimize(query)
            plan, cost = result.best_plan, result.best_cost
            self.stats.dp_planned += 1
        else:
            greedy = GreedyOptimizer(
                self.cost_model, hint_set=self.hint_set, physical=True
            )
            plan, cost = greedy.best_plan_and_cost(query)
            self.stats.greedy_planned += 1
        elapsed = time.perf_counter() - started
        self.stats.queries_planned += 1
        self.stats.total_planning_seconds += elapsed
        self._plan_cache[cache_key] = (plan, cost)
        return plan, cost

    def with_hint_set(self, hint_set: HintSet) -> "ExpertOptimizer":
        """A copy of this expert restricted to ``hint_set`` (used by Bao)."""
        return ExpertOptimizer(
            name=f"{self.name}[{hint_set.name}]",
            cost_model=self.cost_model,
            left_deep_only=self.left_deep_only,
            max_dp_tables=self.max_dp_tables,
            hint_set=hint_set,
        )


def make_postgres_optimizer(
    database: Database,
    estimator: CardinalityEstimator | None = None,
    max_dp_tables: int = 10,
) -> ExpertOptimizer:
    """Build the PostgreSQL-like expert: bushy DP over the expert cost model."""
    estimator = estimator or HistogramEstimator(database)
    cost_model = ExpertCostModel(estimator, database)
    return ExpertOptimizer(
        name="postgres",
        cost_model=cost_model,
        left_deep_only=False,
        max_dp_tables=max_dp_tables,
    )


def make_commdb_optimizer(
    database: Database,
    estimator: CardinalityEstimator | None = None,
    max_dp_tables: int = 12,
) -> ExpertOptimizer:
    """Build the CommDB-like expert: left-deep DP over the expert cost model."""
    estimator = estimator or HistogramEstimator(database)
    cost_model = ExpertCostModel(estimator, database)
    return ExpertOptimizer(
        name="commdb",
        cost_model=cost_model,
        left_deep_only=True,
        max_dp_tables=max_dp_tables,
    )
