"""The :class:`Database`: a schema plus its materialised tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.storage.table import Table

if TYPE_CHECKING:  # Imported lazily to avoid a catalog <-> storage import cycle.
    from repro.catalog.schema import Schema


@dataclass
class Database:
    """A populated database instance.

    The schema declares the paper's JOB indexes (§8.1, "Expert performance"):
    every table's ``id`` and foreign-key columns count as indexed from the
    moment the database is generated, for the engine's indexed nested-loop
    joins and the expert cost models alike.  Each index is built on its
    first probe (:meth:`Table.index`).

    Attributes:
        schema: The schema the tables conform to.
        tables: Mapping from table name to :class:`~repro.storage.table.Table`.
        scale: The data-generation scale factor this instance was built with.
    """

    schema: "Schema"
    tables: dict[str, Table] = field(default_factory=dict)
    scale: float = 1.0

    def add_table(self, table: Table) -> None:
        """Register a materialised table."""
        if table.name not in self.schema.tables:
            raise KeyError(f"table {table.name!r} is not part of schema {self.schema.name!r}")
        self.tables[table.name] = table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"database has no table {name!r}") from None
