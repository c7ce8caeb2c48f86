"""Hash indexes mapping column values to row positions.

The index stores its postings in two parallel arrays (sorted values and the
corresponding row ids) so that lookups are vectorised via ``searchsorted``
rather than Python dictionaries, keeping indexed nested-loop joins fast even
for thousands of probe rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class HashIndex:
    """An index over one column.

    Attributes:
        sorted_values: Column values sorted ascending (one entry per row).
        row_ids: Row positions aligned with ``sorted_values``.
        distinct_values: Sorted unique values.
        starts: For each distinct value, the start offset of its posting run.
        counts: For each distinct value, the number of matching rows.
    """

    sorted_values: np.ndarray
    row_ids: np.ndarray
    distinct_values: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @classmethod
    def build(cls, column: np.ndarray) -> "HashIndex":
        """Build an index from a column array."""
        order = np.argsort(column, kind="stable")
        sorted_values = column[order]
        distinct_values, starts, counts = np.unique(
            sorted_values, return_index=True, return_counts=True
        )
        return cls(
            sorted_values=sorted_values,
            row_ids=order.astype(np.int64),
            distinct_values=distinct_values,
            starts=starts,
            counts=counts,
        )

    @property
    def num_rows(self) -> int:
        """Number of indexed rows."""
        return len(self.row_ids)

    @property
    def num_distinct(self) -> int:
        """Number of distinct values."""
        return len(self.distinct_values)

    def lookup(self, value: object) -> np.ndarray:
        """Row positions whose column equals ``value``."""
        pos = np.searchsorted(self.distinct_values, value)
        if pos >= len(self.distinct_values) or self.distinct_values[pos] != value:
            return np.empty(0, dtype=np.int64)
        start = self.starts[pos]
        return self.row_ids[start : start + self.counts[pos]]
