"""A single in-memory columnar table."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.storage.index import HashIndex


@dataclass
class Table:
    """A columnar table: a name plus equal-length numpy columns.

    Attributes:
        name: Table name.
        columns: Mapping of column name to 1-D numpy array.  All arrays must
            share the same length.
    """

    name: str
    columns: dict[str, np.ndarray]
    _indexes: dict[str, HashIndex] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        lengths = {len(array) for array in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"table {self.name!r} has ragged columns (lengths {sorted(lengths)})"
            )

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> np.ndarray:
        """Return a column array by name."""
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"table {self.name!r} has no column {name!r}") from None

    def column_names(self) -> list[str]:
        """All column names."""
        return list(self.columns)

    def has_index(self, column: str) -> bool:
        """Whether a hash index has been built for ``column``."""
        return column in self._indexes

    def index(self, column: str) -> HashIndex:
        """Return (building if necessary) the hash index on ``column``."""
        if column not in self._indexes:
            self._indexes[column] = HashIndex.build(self.column(column))
        return self._indexes[column]

    def select(self, mask: np.ndarray) -> np.ndarray:
        """Return the row positions selected by a boolean mask."""
        return np.flatnonzero(mask)
