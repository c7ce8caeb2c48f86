"""Query featurisation: the [table → selectivity] vector."""

from __future__ import annotations

import numpy as np

from repro.cardinality.base import CardinalityEstimator
from repro.catalog.schema import Schema
from repro.sql.query import Query


class QueryEncoder:
    """Encodes a query as a fixed-length per-table selectivity vector.

    Each slot corresponds to one table of the schema and holds the estimated
    selectivity of the query's filters on that table (1.0 for an unfiltered
    joined table, 0.0 for an absent table).  When a query references the same
    table under several aliases, the slot holds the product of the aliases'
    selectivities — a compact way to keep the encoding fixed-size, consistent
    with the paper's "simpler than both Neo and DQ" design.

    Args:
        schema: The database schema (defines the slot order).
        estimator: Cardinality estimator used for per-alias selectivities.
    """

    def __init__(self, schema: Schema, estimator: CardinalityEstimator):
        self.schema = schema
        self.estimator = estimator
        self.table_order: list[str] = schema.table_names()
        self._slots = {table: i for i, table in enumerate(self.table_order)}
        self._cache: dict[str, np.ndarray] = {}

    @property
    def dimension(self) -> int:
        """Length of the encoding vector."""
        return len(self.table_order)

    def encode(self, query: Query) -> np.ndarray:
        """Encode ``query`` into its selectivity vector."""
        cached = self._cache.get(query.fingerprint())
        if cached is not None:
            return cached
        encoding = np.zeros(self.dimension, dtype=np.float64)
        present = np.zeros(self.dimension, dtype=bool)
        for table_ref in query.tables:
            slot = self._slots[table_ref.table]
            selectivity = self.estimator.selectivity(query, table_ref.alias)
            if present[slot]:
                encoding[slot] *= selectivity
            else:
                encoding[slot] = selectivity
                present[slot] = True
        self._cache[query.fingerprint()] = encoding
        return encoding
