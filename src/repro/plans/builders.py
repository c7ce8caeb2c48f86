"""Convenience constructors for plan trees."""

from __future__ import annotations

from repro.plans.nodes import JoinOperator, ScanNode, ScanOperator
from repro.sql.query import Query


def scan(
    query: Query, alias: str, operator: ScanOperator = ScanOperator.SEQ_SCAN
) -> ScanNode:
    """Build a scan leaf for ``alias`` of ``query``."""
    return ScanNode(alias=alias, table=query.alias_to_table[alias], operator=operator)


def all_scan_operators() -> tuple[ScanOperator, ...]:
    """All physical scan operators in the search space."""
    return (ScanOperator.SEQ_SCAN, ScanOperator.INDEX_SCAN)


def all_join_operators() -> tuple[JoinOperator, ...]:
    """All physical join operators in the search space."""
    return (JoinOperator.HASH_JOIN, JoinOperator.MERGE_JOIN, JoinOperator.NESTED_LOOP)

