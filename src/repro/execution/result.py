"""Intermediate relational results and vectorised equi-join matching.

An :class:`IntermediateResult` represents the rows of a partial join: for each
participating alias it stores an aligned array of base-table row positions.
Joining two intermediate results matches rows on the query's equi-join
predicates using sort/searchsorted matching (hash-join semantics), which is
what lets the engine know *true* output cardinalities regardless of which
physical operator the plan requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sql.expr import JoinPredicate
from repro.storage.database import Database


@dataclass
class IntermediateResult:
    """Rows of a partial join.

    Attributes:
        rows: Mapping from alias to an array of base-table row positions.  All
            arrays have the same length (the result cardinality).
    """

    rows: dict[str, np.ndarray]

    @property
    def num_rows(self) -> int:
        """Number of result tuples."""
        if not self.rows:
            return 0
        return len(next(iter(self.rows.values())))

    @property
    def aliases(self) -> frozenset[str]:
        """Aliases participating in this result."""
        return frozenset(self.rows)

    def column_values(
        self, database: Database, alias_to_table: dict[str, str], alias: str, column: str
    ) -> np.ndarray:
        """Materialise the values of ``alias.column`` for every result tuple."""
        table = database.table(alias_to_table[alias])
        return table.column(column)[self.rows[alias]]


def match_keys(
    build_keys: np.ndarray, probe_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return all (build_position, probe_position) pairs with equal keys.

    This is the core equi-join kernel: it sorts the build side once and scans
    the probe side with ``searchsorted``, expanding duplicate runs.

    Args:
        build_keys: Key values of the build side.
        probe_keys: Key values of the probe side.

    Returns:
        ``(build_positions, probe_positions)`` arrays of equal length, one
        entry per matching pair.
    """
    if len(build_keys) == 0 or len(probe_keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(build_keys, kind="stable")
    sorted_build = build_keys[order]
    left_edges = np.searchsorted(sorted_build, probe_keys, side="left")
    right_edges = np.searchsorted(sorted_build, probe_keys, side="right")
    counts = right_edges - left_edges
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    probe_positions = np.repeat(np.arange(len(probe_keys), dtype=np.int64), counts)
    hit_mask = counts > 0
    starts = left_edges[hit_mask]
    hit_counts = counts[hit_mask]
    offsets = np.arange(total) - np.repeat(
        np.concatenate(([0], np.cumsum(hit_counts)[:-1])), hit_counts
    )
    build_sorted_positions = np.repeat(starts, hit_counts) + offsets
    build_positions = order[build_sorted_positions]
    return build_positions.astype(np.int64), probe_positions


def estimate_match_count(build_keys: np.ndarray, probe_keys: np.ndarray) -> int:
    """Exact output size of an equi-join on the two key arrays, without materialising.

    Computed as the sum over shared key values of the product of per-side
    multiplicities.  Used to guard against materialising astronomically large
    intermediate results of disastrous plans.
    """
    if len(build_keys) == 0 or len(probe_keys) == 0:
        return 0
    build_values, build_counts = np.unique(build_keys, return_counts=True)
    probe_values, probe_counts = np.unique(probe_keys, return_counts=True)
    shared, build_idx, probe_idx = np.intersect1d(
        build_values, probe_values, assume_unique=True, return_indices=True
    )
    if len(shared) == 0:
        return 0
    return int(np.sum(build_counts[build_idx].astype(np.int64) * probe_counts[probe_idx]))


def join_results(
    database: Database,
    alias_to_table: dict[str, str],
    left: IntermediateResult,
    right: IntermediateResult,
    predicates: list[JoinPredicate] | tuple[JoinPredicate, ...],
) -> IntermediateResult:
    """Join two intermediate results on all given equi-join predicates.

    The first predicate drives the key matching; remaining predicates are
    applied as post-filters on the matched pairs (matching how a real engine
    evaluates residual join conditions).

    Args:
        database: The database providing column values.
        alias_to_table: Alias-to-table mapping of the query.
        left: Left input.
        right: Right input.
        predicates: Join predicates connecting the two sides (non-empty).

    Returns:
        The joined :class:`IntermediateResult`.
    """
    if not predicates:
        raise ValueError("join_results requires at least one join predicate")

    def side_keys(result: IntermediateResult, predicate: JoinPredicate) -> tuple[str, np.ndarray]:
        if predicate.left_alias in result.aliases:
            alias, column = predicate.left_alias, predicate.left_column
        else:
            alias, column = predicate.right_alias, predicate.right_column
        return alias, result.column_values(database, alias_to_table, alias, column)

    first, *rest = list(predicates)
    _, left_keys = side_keys(left, first)
    _, right_keys = side_keys(right, first)
    left_positions, right_positions = match_keys(left_keys, right_keys)

    for predicate in rest:
        if len(left_positions) == 0:
            break
        _, left_vals = side_keys(left, predicate)
        _, right_vals = side_keys(right, predicate)
        keep = left_vals[left_positions] == right_vals[right_positions]
        left_positions = left_positions[keep]
        right_positions = right_positions[keep]

    rows: dict[str, np.ndarray] = {}
    for alias, row_ids in left.rows.items():
        rows[alias] = row_ids[left_positions]
    for alias, row_ids in right.rows.items():
        rows[alias] = row_ids[right_positions]
    return IntermediateResult(rows)
