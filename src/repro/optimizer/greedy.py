"""Greedy plan construction for queries too large for exact DP.

PostgreSQL switches from exhaustive DP to GEQO above a table-count threshold;
our expert optimizer switches to this greedy pairing heuristic instead: it
repeatedly merges the pair of partial plans whose join has the lowest total
cost, trying every allowed physical operator, until one plan remains.  This
keeps expert planning polynomial for the largest JOB-like queries (up to 16
tables) while remaining cost-model-driven.
"""

from __future__ import annotations

import time

from repro.costmodel.base import CostModel
from repro.execution.hints import HintSet
from repro.planning.envelope import PlanRequest, PlanResult
from repro.plans.builders import scan
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanOperator
from repro.sql.query import Query


class GreedyOptimizer:
    """Greedy bottom-up pairing guided by a cost model.

    Args:
        cost_model: Additive cost model.
        hint_set: Restricts physical operators (``None`` = all operators).
        physical: Whether to enumerate physical operators.
    """

    name = "greedy"

    def __init__(
        self,
        cost_model: CostModel,
        hint_set: HintSet | None = None,
        physical: bool = True,
    ):
        self.cost_model = cost_model
        self.hint_set = hint_set or HintSet(name="all")
        self.physical = physical

    def plan(self, request: PlanRequest) -> PlanResult:
        """Plan ``request.query`` greedily (the :class:`Planner` protocol entry)."""
        started = time.perf_counter()
        plan, cost = self.best_plan_and_cost(request.query)
        return PlanResult(
            plans=[plan],
            predicted_latencies=[cost],
            planning_seconds=time.perf_counter() - started,
            planner_name=self.name,
        )

    def best_plan_and_cost(self, query: Query) -> tuple[PlanNode, float]:
        """Build a complete plan for ``query`` greedily.

        Returns:
            ``(plan, cost)`` where ``cost`` is the plan's total model cost.
        """
        scan_ops = self._scan_operators()
        join_ops = self._join_operators()

        partials: list[tuple[PlanNode, float]] = []
        for alias in query.aliases:
            best_scan: tuple[PlanNode, float] | None = None
            for operator in scan_ops:
                candidate = scan(query, alias, operator)
                cost = self.cost_model.node_cost(query, candidate)
                if best_scan is None or cost < best_scan[1]:
                    best_scan = (candidate, cost)
            partials.append(best_scan)

        while len(partials) > 1:
            best: tuple[int, int, PlanNode, float] | None = None
            for i in range(len(partials)):
                for j in range(len(partials)):
                    if i == j:
                        continue
                    left_plan, left_cost = partials[i]
                    right_plan, right_cost = partials[j]
                    if not query.joins_between(
                        left_plan.leaf_aliases, right_plan.leaf_aliases
                    ):
                        continue
                    for operator in join_ops:
                        candidate = JoinNode(left_plan, right_plan, operator)
                        cost = self.cost_model.combine(
                            query, candidate, left_cost, right_cost
                        )
                        if best is None or cost < best[3]:
                            best = (i, j, candidate, cost)
            if best is None:
                raise ValueError(
                    f"query {query.name!r}: join graph is disconnected; cannot plan "
                    "without cross products"
                )
            i, j, candidate, cost = best
            keep = [p for idx, p in enumerate(partials) if idx not in (i, j)]
            keep.append((candidate, cost))
            partials = keep

        return partials[0]

    def _scan_operators(self) -> tuple[ScanOperator, ...]:
        if not self.physical:
            return (ScanOperator.SEQ_SCAN,)
        allowed = tuple(
            op
            for op in (ScanOperator.SEQ_SCAN, ScanOperator.INDEX_SCAN)
            if self.hint_set.allows_scan(op)
        )
        return allowed or (ScanOperator.SEQ_SCAN,)

    def _join_operators(self) -> tuple[JoinOperator, ...]:
        if not self.physical:
            return (JoinOperator.HASH_JOIN,)
        allowed = tuple(
            op
            for op in (JoinOperator.HASH_JOIN, JoinOperator.MERGE_JOIN, JoinOperator.NESTED_LOOP)
            if self.hint_set.allows_join(op)
        )
        return allowed or (JoinOperator.HASH_JOIN,)
