"""Plan featurisation: Neo-style per-node feature vectors and tree flattening."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.catalog.schema import Schema
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode, ScanOperator

#: Fixed operator slot order used in the one-hot part of a node feature.
OPERATOR_ORDER: tuple[str, ...] = (
    ScanOperator.SEQ_SCAN.value,
    ScanOperator.INDEX_SCAN.value,
    JoinOperator.HASH_JOIN.value,
    JoinOperator.MERGE_JOIN.value,
    JoinOperator.NESTED_LOOP.value,
)


@dataclass
class FlattenedPlan:
    """A plan flattened for tree convolution.

    Attributes:
        features: ``(num_nodes + 1, feature_dim)`` node features, row 0 being
            the sentinel zero node.
        left: Left-child indices per slot (0 = none).
        right: Right-child indices per slot (0 = none).
        num_nodes: Number of real nodes.
    """

    features: np.ndarray
    left: np.ndarray
    right: np.ndarray
    num_nodes: int


class PlanEncoder:
    """Encodes plan trees into flattened node tables.

    Each node's feature vector is ``[operator one-hot | table multi-hot]``
    where the multi-hot marks the base tables covered by the node's subtree.

    A row therefore depends only on the node's operator and its set of
    covered tables, and beam search revisits the same few subtrees under ever
    new roots: each distinct row is built once, kept in a table owned by the
    encoder, and :meth:`flatten` gathers a plan's rows from it by index.

    Args:
        schema: The database schema (defines the multi-hot slot order).

    Attributes:
        node_dimension: Feature dimensionality of one node.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self.table_order: list[str] = schema.table_names()
        self._table_slots = {table: i for i, table in enumerate(self.table_order)}
        # The operator enums are ``str`` subclasses: a member hashes and
        # compares as its value, so members look themselves up here directly.
        self._operator_slots = {name: i for i, name in enumerate(OPERATOR_ORDER)}
        self.node_dimension = len(OPERATOR_ORDER) + len(self.table_order)
        # Interned rows, keyed by (operator, bit mask over ``table_order``).
        # Row 0 is the sentinel zero node; the array doubles when it fills.
        self._rows = np.zeros((256, self.node_dimension), dtype=np.float64)
        self._row_ids: dict[tuple[str, int], int] = {}
        # Planner-service workers share one encoder; only a miss takes the lock.
        self._intern_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def _intern(self, operator: str, tables: int) -> int:
        """Index of the row for ``operator`` over the ``tables`` bit mask."""
        key = (operator, tables)
        with self._intern_lock:
            row_id = self._row_ids.get(key)
            if row_id is not None:
                return row_id
            row_id = len(self._row_ids) + 1
            if row_id == len(self._rows):
                grown = np.zeros((2 * row_id, self.node_dimension), dtype=np.float64)
                grown[:row_id] = self._rows
                self._rows = grown
            row = self._rows[row_id]
            row[self._operator_slots[operator]] = 1.0
            offset = len(OPERATOR_ORDER)
            for slot in range(len(self.table_order)):
                if tables >> slot & 1:
                    row[offset + slot] = 1.0
            # Published last: a reader that finds the id finds the row filled
            # in, in whichever array ``self._rows`` names by then.
            self._row_ids[key] = row_id
            return row_id

    def row_id(self, operator: str, tables: int) -> int:
        """Index of the interned row for ``operator`` over the ``tables`` mask.

        The mask has the bit of :meth:`table_bit` set for every base table
        the node's subtree covers, so a join's mask is the OR of its inputs'.
        """
        row_id = self._row_ids.get((operator, tables))
        return row_id if row_id is not None else self._intern(operator, tables)

    def table_bit(self, table: str) -> int:
        """The mask bit of one base table."""
        return 1 << self._table_slots[table]

    def rows(self, row_ids) -> np.ndarray:
        """A fresh ``(len(row_ids), node_dimension)`` array of interned rows."""
        return self._rows.take(row_ids, axis=0)

    def node_features(
        self, plan: PlanNode, alias_to_table: Mapping[str, str]
    ) -> np.ndarray:
        """Feature vector for a single node (without descending into children)."""
        if not isinstance(plan, (ScanNode, JoinNode)):  # pragma: no cover - two kinds
            raise TypeError(f"unknown plan node type {type(plan)!r}")
        tables = 0
        for alias in plan.leaf_aliases:
            tables |= self.table_bit(alias_to_table[alias])
        return self._rows[self.row_id(plan.operator, tables)].copy()

    def flatten(self, plan: PlanNode, alias_to_table: Mapping[str, str]) -> FlattenedPlan:
        """Flatten a plan into the node-table form used by tree convolution.

        Slots are numbered in preorder (``iter_nodes`` order), after the
        sentinel at slot 0.
        """
        row_ids = [0]
        left = [0]
        right = [0]
        self._append_subtree(plan, alias_to_table, row_ids, left, right)
        return FlattenedPlan(
            features=self._rows[row_ids],
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            num_nodes=len(row_ids) - 1,
        )

    def _append_subtree(
        self,
        node: PlanNode,
        alias_to_table: Mapping[str, str],
        row_ids: list[int],
        left: list[int],
        right: list[int],
    ) -> int:
        """Append ``node``'s subtree to :meth:`flatten`'s lists; returns the
        mask of its tables.

        A method, not a closure in ``flatten``: a closure that calls itself
        is a reference cycle, and would keep each call's lists alive until
        the cycle collector ran.
        """
        slot = len(row_ids)
        row_ids.append(0)
        left.append(0)
        right.append(0)
        if isinstance(node, JoinNode):
            left[slot] = slot + 1
            tables = self._append_subtree(node.left, alias_to_table, row_ids, left, right)
            right[slot] = len(row_ids)
            tables |= self._append_subtree(node.right, alias_to_table, row_ids, left, right)
        elif isinstance(node, ScanNode):
            tables = 1 << self._table_slots[alias_to_table[node.alias]]
        else:  # pragma: no cover - only two node kinds
            raise TypeError(f"unknown plan node type {type(node)!r}")
        row_id = self._row_ids.get((node.operator, tables))
        if row_id is None:
            row_id = self._intern(node.operator, tables)
        row_ids[slot] = row_id
        return tables
