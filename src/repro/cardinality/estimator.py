"""The histogram (PostgreSQL-style) cardinality estimator.

Paper §3.3: *"we pick PostgreSQL's estimator for its simplicity (per-column
histograms; heuristically assumes independence for joins; 'magic constants'
for complex filters)"*.  This class reproduces that estimator family:

- single-table selectivities come from per-column statistics (MCV lists for
  equality, equi-depth histograms for ranges, a magic constant for anything
  the statistics cannot answer), multiplied under the attribute-independence
  assumption;
- equi-join selectivity between two relations is ``1 / max(ndv_left,
  ndv_right)`` (System R / PostgreSQL's ``eqjoinsel``);
- a multi-table estimate multiplies base cardinalities, filter selectivities
  and the join selectivities of every join predicate inside the alias set.

Like the real thing, it can be off by orders of magnitude on skewed,
correlated data — which is exactly the property the paper leans on when
arguing that an inaccurate simulator still bootstraps Balsa effectively.
"""

from __future__ import annotations

from repro.cardinality.base import CardinalityEstimator
from repro.sql.expr import ComparisonOp, FilterPredicate
from repro.sql.query import Query
from repro.storage.database import Database
from repro.storage.statistics import TableStatistics, collect_statistics

#: Selectivity assigned to predicates the statistics cannot evaluate
#: (PostgreSQL uses similar "magic" defaults, e.g. 0.005 for LIKE).
DEFAULT_MAGIC_SELECTIVITY = 0.01


class HistogramEstimator(CardinalityEstimator):
    """Histogram-based cardinality estimation over collected statistics.

    Args:
        database: The database to profile (with
            :func:`~repro.storage.statistics.collect_statistics`' defaults).
    """

    def __init__(self, database: Database):
        self.database = database
        self.statistics: dict[str, TableStatistics] = collect_statistics(database)
        # Estimates are deterministic per (query, alias set); the DP enumerator
        # asks for the same subsets thousands of times, so memoise them.
        self._cache: dict[tuple[str, frozenset], float] = {}

    # ------------------------------------------------------------------ #
    # CardinalityEstimator interface
    # ------------------------------------------------------------------ #
    def base_rows(self, query: Query, alias: str) -> float:
        table = query.alias_to_table[alias]
        return float(self.statistics[table].num_rows)

    def estimate(self, query: Query, aliases: frozenset[str]) -> float:
        aliases = frozenset(aliases)
        if not aliases:
            raise ValueError("aliases must be non-empty")
        key = (query.fingerprint(), aliases)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        cardinality = 1.0
        for alias in aliases:
            cardinality *= self._filtered_rows(query, alias)
        for predicate in query.joins_within(aliases):
            cardinality *= self._join_selectivity(query, predicate)
        cardinality = max(cardinality, 0.0)
        self._cache[key] = cardinality
        return cardinality

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _filtered_rows(self, query: Query, alias: str) -> float:
        table = query.alias_to_table[alias]
        stats = self.statistics[table]
        rows = float(stats.num_rows)
        selectivity = 1.0
        for predicate in query.filters_for(alias):
            selectivity *= self._filter_selectivity(stats, predicate)
        return max(rows * selectivity, 1e-6)

    def _filter_selectivity(
        self, stats: TableStatistics, predicate: FilterPredicate
    ) -> float:
        try:
            column = stats.column(predicate.column)
        except KeyError:
            return DEFAULT_MAGIC_SELECTIVITY
        op = predicate.op
        if op is ComparisonOp.EQ:
            return column.equality_selectivity(predicate.value)
        if op is ComparisonOp.NE:
            return max(0.0, 1.0 - column.equality_selectivity(predicate.value))
        if op is ComparisonOp.IN:
            total = sum(column.equality_selectivity(v) for v in predicate.value)
            return min(1.0, total)
        if op is ComparisonOp.LT:
            return column.range_selectivity(None, float(predicate.value) - 1e-9)
        if op is ComparisonOp.LE:
            return column.range_selectivity(None, float(predicate.value))
        if op is ComparisonOp.GT:
            return column.range_selectivity(float(predicate.value) + 1e-9, None)
        if op is ComparisonOp.GE:
            return column.range_selectivity(float(predicate.value), None)
        if op is ComparisonOp.BETWEEN:
            low, high = predicate.value
            return column.range_selectivity(float(low), float(high))
        return DEFAULT_MAGIC_SELECTIVITY

    def _join_selectivity(self, query: Query, predicate) -> float:
        left_table = query.alias_to_table[predicate.left_alias]
        right_table = query.alias_to_table[predicate.right_alias]
        left_stats = self.statistics[left_table]
        right_stats = self.statistics[right_table]
        try:
            left_ndv = max(1, left_stats.column(predicate.left_column).num_distinct)
        except KeyError:
            left_ndv = max(1, left_stats.num_rows)
        try:
            right_ndv = max(1, right_stats.column(predicate.right_column).num_distinct)
        except KeyError:
            right_ndv = max(1, right_stats.num_rows)
        return 1.0 / float(max(left_ndv, right_ndv))
