"""Schema metadata: tables, columns, keys and their statistical shape.

A :class:`Schema` describes structure only; actual rows are produced by
:mod:`repro.catalog.datagen` and stored by :mod:`repro.storage`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

class ColumnKind(str, enum.Enum):
    """Statistical shape of a column, used by the data generator."""

    PRIMARY_KEY = "primary_key"
    FOREIGN_KEY = "foreign_key"
    CATEGORICAL = "categorical"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class ColumnDef:
    """Definition of one column.

    Attributes:
        name: Column name.
        kind: Statistical shape (:class:`ColumnKind`).
        distinct: Target number of distinct values for categorical columns.
        low: Lower bound for numeric columns.
        high: Upper bound for numeric columns.
        skew: Zipf-like skew parameter for categorical / foreign key columns.
            ``0.0`` means uniform; larger values concentrate mass on few values.
        null_fraction: Fraction of rows set to the sentinel ``-1`` to emulate
            NULLs (the engine treats ``-1`` like any other value, which is a
            conservative simplification).
    """

    name: str
    kind: ColumnKind = ColumnKind.CATEGORICAL
    distinct: int = 10
    low: float = 0.0
    high: float = 100.0
    skew: float = 0.5
    null_fraction: float = 0.0


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key relationship ``table.column -> ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str = "id"


@dataclass(frozen=True)
class TableDef:
    """Definition of one table.

    Attributes:
        name: Table name.
        base_rows: Row count at ``scale=1.0`` (scaled linearly by the data
            generator).
        columns: Column definitions, excluding the implicit ``id`` primary key
            which every table receives automatically.
        foreign_keys: FK relationships to other tables.
    """

    name: str
    base_rows: int
    columns: tuple[ColumnDef, ...] = ()
    foreign_keys: tuple[ForeignKey, ...] = ()

    def column(self, name: str) -> ColumnDef:
        """Look up a column definition (including the implicit ``id``)."""
        if name == "id":
            return ColumnDef("id", ColumnKind.PRIMARY_KEY)
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"table {self.name!r} has no column {name!r}")

    def column_names(self) -> list[str]:
        """All column names, starting with the implicit primary key."""
        return ["id"] + [c.name for c in self.columns]

    def foreign_key_for(self, column: str) -> ForeignKey | None:
        """Return the FK constraint on ``column``, if any."""
        for fk in self.foreign_keys:
            if fk.column == column:
                return fk
        return None


@dataclass
class Schema:
    """A named collection of tables with referential structure.

    Attributes:
        name: Schema name (``"imdb"`` or ``"tpch"``).
        tables: Mapping from table name to :class:`TableDef`.
    """

    name: str
    tables: dict[str, TableDef] = field(default_factory=dict)

    def add(self, table: TableDef) -> None:
        """Register a table definition."""
        if table.name in self.tables:
            raise ValueError(f"duplicate table {table.name!r} in schema {self.name!r}")
        self.tables[table.name] = table

    def table(self, name: str) -> TableDef:
        """Look up a table definition by name."""
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"schema {self.name!r} has no table {name!r}") from None

    def table_names(self) -> list[str]:
        """All table names in insertion order."""
        return list(self.tables)

    def validate(self) -> None:
        """Check that all foreign keys reference existing tables and columns.

        Raises:
            ValueError: On a dangling reference.
        """
        for table in self.tables.values():
            column_names = set(table.column_names())
            for fk in table.foreign_keys:
                if fk.column not in column_names:
                    raise ValueError(
                        f"{table.name}.{fk.column}: FK column does not exist"
                    )
                if fk.ref_table not in self.tables:
                    raise ValueError(
                        f"{table.name}.{fk.column}: references unknown table "
                        f"{fk.ref_table!r}"
                    )
                ref = self.tables[fk.ref_table]
                if fk.ref_column not in ref.column_names():
                    raise ValueError(
                        f"{table.name}.{fk.column}: references unknown column "
                        f"{fk.ref_table}.{fk.ref_column}"
                    )

    def foreign_key_edges(self) -> list[tuple[str, str, str, str]]:
        """All FK edges as ``(table, column, ref_table, ref_column)`` tuples."""
        edges = []
        for table in self.tables.values():
            for fk in table.foreign_keys:
                edges.append((table.name, fk.column, fk.ref_table, fk.ref_column))
        return edges
