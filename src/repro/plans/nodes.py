"""Plan node classes.

Plans are immutable, hashable binary trees.  ``fingerprint()`` provides a
stable string identity used by the plan cache, visit counts for safe
exploration, and experience deduplication (Table 1 of the paper counts
"unique plans" by exactly this identity).

A node is built once and asked for its identity many times (beam search
keys every cache on it), so the fingerprint is composed at construction from
the children's stored strings, next to ``leaf_aliases``; neither is a
dataclass field, so ``eq``/``hash``/``repr`` see only the declared fields.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


class ScanOperator(str, enum.Enum):
    """Physical scan operators."""

    SEQ_SCAN = "SeqScan"
    INDEX_SCAN = "IndexScan"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class JoinOperator(str, enum.Enum):
    """Physical join operators."""

    HASH_JOIN = "HashJoin"
    MERGE_JOIN = "MergeJoin"
    NESTED_LOOP = "NestedLoop"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PlanNode:
    """Base class for plan tree nodes."""

    #: Aliases of the base tables covered by this subtree.
    leaf_aliases: frozenset[str]
    #: The subtree's identity, rendered once when the node is built.
    _fingerprint: str
    #: The operator-free identity, rendered on first use.
    _logical_fingerprint: str

    def fingerprint(self) -> str:
        """A stable string identity for the (sub)plan."""
        return self._fingerprint

    def logical_fingerprint(self) -> str:
        """Identity ignoring physical operators (join order/shape only)."""
        return self._logical_fingerprint

    def iter_nodes(self) -> Iterator["PlanNode"]:
        """Yield every node in the subtree (preorder)."""
        raise NotImplementedError

    def iter_joins(self) -> Iterator["JoinNode"]:
        """Yield every join node in the subtree (preorder)."""
        for node in self.iter_nodes():
            if isinstance(node, JoinNode):
                yield node

    def iter_scans(self) -> Iterator["ScanNode"]:
        """Yield every scan leaf in the subtree (preorder)."""
        for node in self.iter_nodes():
            if isinstance(node, ScanNode):
                yield node

    def iter_subplans(self) -> Iterator["PlanNode"]:
        """Yield every subplan (each node viewed as the root of its subtree).

        This is the ``∀ T' ⊆ T`` enumeration used by the data-augmentation
        procedure of §3.2 / §4.1.
        """
        return self.iter_nodes()

    @property
    def num_tables(self) -> int:
        """Number of base tables joined by this subtree."""
        return len(self.leaf_aliases)

    @property
    def num_joins(self) -> int:
        """Number of join nodes in this subtree."""
        return sum(1 for _ in self.iter_joins())

    @property
    def height(self) -> int:
        """Tree height (a single scan has height 1)."""
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        """Multi-line, indented rendering of the plan tree."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.fingerprint()


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """A leaf: scanning one base table alias.

    Attributes:
        alias: Query alias being scanned.
        table: Physical table name.
        operator: Physical scan operator.
    """

    alias: str
    table: str
    operator: ScanOperator = ScanOperator.SEQ_SCAN

    def __post_init__(self) -> None:
        object.__setattr__(self, "leaf_aliases", frozenset((self.alias,)))
        object.__setattr__(self, "_fingerprint", f"{self.operator.value}({self.alias})")

    @cached_property
    def _logical_fingerprint(self) -> str:
        return f"Scan({self.alias})"

    def iter_nodes(self) -> Iterator[PlanNode]:
        yield self

    @property
    def height(self) -> int:
        return 1

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"{self.operator.value} {self.table} AS {self.alias}"

    def with_operator(self, operator: ScanOperator) -> "ScanNode":
        """Return a copy using a different physical scan operator."""
        return ScanNode(self.alias, self.table, operator)


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """An internal node joining two subplans.

    Attributes:
        left: Left input (build side for hash joins, outer side for nested
            loops).
        right: Right input (probe side / inner side).
        operator: Physical join operator.
    """

    left: PlanNode
    right: PlanNode
    operator: JoinOperator = JoinOperator.HASH_JOIN

    def __post_init__(self) -> None:
        overlap = self.left.leaf_aliases & self.right.leaf_aliases
        if overlap:
            raise ValueError(f"join inputs overlap on aliases {sorted(overlap)}")
        object.__setattr__(
            self, "leaf_aliases", self.left.leaf_aliases | self.right.leaf_aliases
        )
        object.__setattr__(
            self,
            "_fingerprint",
            f"{self.operator.value}({self.left.fingerprint()},{self.right.fingerprint()})",
        )

    @cached_property
    def _logical_fingerprint(self) -> str:
        return (
            f"Join({self.left.logical_fingerprint()},"
            f"{self.right.logical_fingerprint()})"
        )

    def iter_nodes(self) -> Iterator[PlanNode]:
        yield self
        yield from self.left.iter_nodes()
        yield from self.right.iter_nodes()

    @property
    def height(self) -> int:
        return 1 + max(self.left.height, self.right.height)

    def describe(self, indent: int = 0) -> str:
        lines = [" " * indent + self.operator.value]
        lines.append(self.left.describe(indent + 2))
        lines.append(self.right.describe(indent + 2))
        return "\n".join(lines)

    def with_operator(self, operator: JoinOperator) -> "JoinNode":
        """Return a copy using a different physical join operator."""
        return JoinNode(self.left, self.right, operator)
