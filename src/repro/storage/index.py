"""Hash indexes mapping column values to row positions.

The index stores its postings as row ids grouped by value, plus the sorted
distinct values with each one's run, so that lookups are vectorised via
``searchsorted`` rather than Python dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class HashIndex:
    """An index over one column; :meth:`Table.index` builds it on the first probe.

    Attributes:
        row_ids: Row positions ordered by column value (stable within a value).
        distinct_values: Sorted unique values.
        starts: For each distinct value, the start offset of its posting run.
        counts: For each distinct value, the number of matching rows.
    """

    row_ids: np.ndarray
    distinct_values: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @classmethod
    def build(cls, column: np.ndarray) -> "HashIndex":
        """Build an index from a column array."""
        order = np.argsort(column, kind="stable")
        # ``lookup`` hands these out as row ids; a miss is an empty int64.
        assert order.dtype == np.int64
        # The column is sorted once: each value's run starts where the
        # sorted column changes.
        ordered = column[order]
        first = np.empty(len(ordered), dtype=bool)
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=len(ordered))
        return cls(row_ids=order, distinct_values=ordered[starts], starts=starts, counts=counts)

    def lookup(self, value: object) -> np.ndarray:
        """Row positions whose column equals ``value``."""
        pos = np.searchsorted(self.distinct_values, value)
        if pos >= len(self.distinct_values) or self.distinct_values[pos] != value:
            return np.empty(0, dtype=np.int64)
        start = self.starts[pos]
        return self.row_ids[start : start + self.counts[pos]]
