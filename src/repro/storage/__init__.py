"""In-memory column-store storage layer.

Tables are dictionaries of numpy arrays.  A generated database declares the
primary/foreign-key indexes the paper creates for the Join Order Benchmark
(§8.1, "Expert performance"); the indexed nested-loop join and the expert cost
models read that declaration, and a column's hash index (value -> row
positions) is built on its first probe.
"""

from repro.storage.table import Table
from repro.storage.database import Database
from repro.storage.index import HashIndex
from repro.storage.statistics import ColumnStatistics, TableStatistics, collect_statistics

__all__ = [
    "Table",
    "Database",
    "HashIndex",
    "ColumnStatistics",
    "TableStatistics",
    "collect_statistics",
]
