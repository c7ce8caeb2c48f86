"""Query plan trees (logical and physical).

A plan is an immutable binary tree of :class:`~repro.plans.nodes.PlanNode`
objects: :class:`~repro.plans.nodes.ScanNode` leaves over base-table aliases
and :class:`~repro.plans.nodes.JoinNode` internal nodes.  Plans carry their
physical operators (scan and join types); cost models that are "logical only"
(such as :math:`C_{out}`) simply ignore them, exactly as footnote 4 of the
paper describes.
"""

from repro.plans.nodes import (
    JoinNode,
    JoinOperator,
    PlanNode,
    ScanNode,
    ScanOperator,
)
from repro.plans.builders import (
    all_join_operators,
    all_scan_operators,
    scan,
)
from repro.plans.analysis import (
    OperatorComposition,
    PlanShape,
    operator_composition,
    operator_counts,
    plan_shape,
)
from repro.plans.validation import InvalidPlanError, is_valid_plan, validate_plan

__all__ = [
    "JoinNode",
    "JoinOperator",
    "PlanNode",
    "ScanNode",
    "ScanOperator",
    "all_join_operators",
    "all_scan_operators",
    "scan",
    "OperatorComposition",
    "PlanShape",
    "plan_shape",
    "operator_composition",
    "operator_counts",
    "InvalidPlanError",
    "is_valid_plan",
    "validate_plan",
]
