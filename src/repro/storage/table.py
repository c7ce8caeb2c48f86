"""A single in-memory columnar table."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.storage.index import HashIndex


@dataclass
class Table:
    """A columnar table: a name plus equal-length numpy columns.

    A column is indexed once it is declared (``indexed``) or its index has
    been built.  Declaring costs nothing: the :class:`HashIndex` of a column
    is built by the first :meth:`index` call and then kept, so a declared
    index nothing probes never takes memory.

    Attributes:
        name: Table name.
        columns: Mapping of column name to 1-D numpy array.  All arrays must
            share the same length.
        indexed: Columns declared indexed (the data generator declares the
            schema's primary and foreign keys).
    """

    name: str
    columns: dict[str, np.ndarray]
    indexed: frozenset[str] = frozenset()
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

    def has_index(self, column: str) -> bool:
        """Whether ``column`` is indexed: declared, or its index already built."""
        return column in self.indexed or column in self._indexes

    def index(self, column: str) -> HashIndex:
        """Return the hash index on ``column``, building it on the first call.

        Threads racing on the first call may each build one; ``setdefault``
        keeps the first stored, and every caller gets a complete index.
        """
        index = self._indexes.get(column)
        if index is None:
            index = self._indexes.setdefault(column, HashIndex.build(self.column(column)))
        return index
