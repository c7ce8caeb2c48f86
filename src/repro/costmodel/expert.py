"""A PostgreSQL-style expert cost model.

The expert cost model mirrors the execution engine's per-operator work
formulas (hash build/probe costs, sort costs, index probe costs, nested-loop
products, memory spills) but evaluates them on *estimated* cardinalities from
a :class:`~repro.cardinality.base.CardinalityEstimator` instead of the true
intermediate sizes.  That combination — sophisticated operator modelling,
imperfect cardinalities, one-size-fits-all constants — is exactly what makes
the real PostgreSQL optimizer both strong and beatable, and is what the paper
uses both as its expert baseline's brain and as the "Expert Simulator"
ablation (Figure 10).
"""

from __future__ import annotations

import math

from repro.cardinality.base import CardinalityEstimator
from repro.costmodel.base import CostModel
from repro.execution.latency import LatencyModel
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode, ScanOperator
from repro.sql.expr import ComparisonOp
from repro.sql.query import Query
from repro.storage.database import Database


def _log2(value: float) -> float:
    return math.log2(max(2.0, value))


#: Multiplier applied to nested-loop and index costs to model the expert's
#: generic (not workload-tuned) constants; 1.0 would be perfectly tuned.
COST_CONSTANT_ERROR = 1.6


class ExpertCostModel(CostModel):
    """Physical cost model with PostgreSQL-flavoured operator formulas.

    Args:
        estimator: Cardinality estimator used for every intermediate size.
        database: Database (needed to know base-table sizes and which columns
            are indexed, as the real planner does through the catalog).

    The operator cost constants are the engine's
    :class:`~repro.execution.latency.LatencyModel` defaults, i.e. the expert
    "knows" the hardware profile but not the true cardinalities; nested-loop
    and index costs are scaled by :data:`COST_CONSTANT_ERROR`.
    """

    is_physical = True

    def __init__(
        self,
        estimator: CardinalityEstimator,
        database: Database,
    ):
        self.estimator = estimator
        self.database = database
        self.constants = LatencyModel()

    # ------------------------------------------------------------------ #
    # CostModel interface
    # ------------------------------------------------------------------ #
    def node_cost(self, query: Query, node: PlanNode) -> float:
        if isinstance(node, ScanNode):
            return self._scan_cost(query, node)
        if isinstance(node, JoinNode):
            return self._join_cost(query, node)
        raise TypeError(f"unknown plan node type {type(node)!r}")

    # ------------------------------------------------------------------ #
    # Operator formulas
    # ------------------------------------------------------------------ #
    def _scan_cost(self, query: Query, node: ScanNode) -> float:
        c = self.constants
        table = self.database.table(node.table)
        base_rows = table.num_rows
        out_rows = self.estimator.estimate(query, node.leaf_aliases)
        cost = c.startup_cost
        if node.operator is ScanOperator.INDEX_SCAN:
            usable = any(
                f.op is ComparisonOp.EQ and table.has_index(f.column)
                for f in query.filters_for(node.alias)
            )
            if usable:
                cost += (
                    c.index_probe_cost * _log2(base_rows) * COST_CONSTANT_ERROR
                    + out_rows
                )
            else:
                cost += base_rows * c.seq_scan_cost * 1.5
        else:
            cost += base_rows * c.seq_scan_cost
        return cost + out_rows * c.cpu_tuple_cost

    def _join_cost(self, query: Query, node: JoinNode) -> float:
        c = self.constants
        left_rows = self.estimator.estimate(query, node.left.leaf_aliases)
        right_rows = self.estimator.estimate(query, node.right.leaf_aliases)
        out_rows = self.estimator.estimate(query, node.leaf_aliases)
        cost = c.startup_cost
        if node.operator is JoinOperator.HASH_JOIN:
            build = left_rows * c.hash_build_cost
            probe = right_rows * c.hash_probe_cost
            if left_rows > c.memory_limit_tuples:
                build *= c.spill_factor
                probe *= c.spill_factor
            cost += build + probe
        elif node.operator is JoinOperator.MERGE_JOIN:
            cost += c.sort_cost * (
                left_rows * _log2(left_rows) + right_rows * _log2(right_rows)
            )
            cost += (left_rows + right_rows) * c.cpu_tuple_cost
        else:  # nested loop
            indexed = self._indexed_inner(query, node)
            if indexed:
                inner_alias = next(iter(node.right.leaf_aliases))
                inner_table = self.database.table(query.alias_to_table[inner_alias])
                probe_cost = (
                    c.index_probe_cost
                    * _log2(inner_table.num_rows)
                    * COST_CONSTANT_ERROR
                )
                cost += left_rows * probe_cost + out_rows * c.cpu_tuple_cost
            else:
                cost += (
                    left_rows
                    * right_rows
                    * c.nested_loop_cost
                    * COST_CONSTANT_ERROR
                )
        return cost + out_rows * c.cpu_tuple_cost

    def _indexed_inner(self, query: Query, node: JoinNode) -> bool:
        if not isinstance(node.right, ScanNode):
            return False
        inner_alias = node.right.alias
        table = self.database.table(node.right.table)
        for predicate in query.joins_between(
            node.left.leaf_aliases, node.right.leaf_aliases
        ):
            if inner_alias in predicate.aliases() and table.has_index(
                predicate.column_for(inner_alias)
            ):
                return True
        return False
