"""Synthetic data generation for a :class:`~repro.catalog.schema.Schema`.

The generator produces integer/float numpy columns with controllable skew so
that the resulting database has the properties that make join ordering hard
in the real Join Order Benchmark: highly skewed foreign keys, correlated
fact-table sizes spanning two orders of magnitude, and filters whose
selectivities the histogram estimator gets wrong by large factors.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.schema import ColumnDef, ColumnKind, Schema, TableDef
from repro.storage.database import Database
from repro.storage.table import Table
from repro.utils.rng import new_rng


def zipf_probabilities(num_values: int, skew: float) -> np.ndarray:
    """Zipf-like probability vector over ``num_values`` ranks.

    ``skew=0`` yields the uniform distribution; larger values concentrate
    probability mass on low ranks.
    """
    if num_values <= 0:
        raise ValueError("num_values must be positive")
    ranks = np.arange(1, num_values + 1, dtype=np.float64)
    weights = ranks ** (-float(skew)) if skew > 0 else np.ones(num_values)
    return weights / weights.sum()


def sample_zipf(
    rng: np.random.Generator, values: np.ndarray, size: int, skew: float
) -> np.ndarray:
    """Sample ``size`` elements from ``values`` with Zipf-like skew over ranks."""
    probabilities = zipf_probabilities(len(values), skew)
    indices = rng.choice(len(values), size=size, p=probabilities)
    return values[indices]


def _generate_column(
    rng: np.random.Generator,
    column: ColumnDef,
    num_rows: int,
    referenced_keys: np.ndarray | None,
) -> np.ndarray:
    """Generate one column's data array."""
    if column.kind is ColumnKind.PRIMARY_KEY:
        return np.arange(num_rows, dtype=np.int64)
    if column.kind is ColumnKind.FOREIGN_KEY:
        if referenced_keys is None or len(referenced_keys) == 0:
            raise ValueError(f"foreign key column {column.name!r} has no referenced keys")
        data = sample_zipf(rng, referenced_keys, num_rows, column.skew).astype(np.int64)
    elif column.kind is ColumnKind.CATEGORICAL:
        distinct = max(1, int(column.distinct))
        domain = np.arange(distinct, dtype=np.int64)
        data = sample_zipf(rng, domain, num_rows, column.skew)
    elif column.kind is ColumnKind.NUMERIC:
        data = rng.uniform(column.low, column.high, size=num_rows)
        data = np.floor(data).astype(np.int64)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown column kind {column.kind}")
    if column.null_fraction > 0:
        null_mask = rng.random(num_rows) < column.null_fraction
        data = data.copy()
        data[null_mask] = -1
    return data


def _generation_order(schema: Schema) -> list[TableDef]:
    """Topologically order tables so referenced tables are generated first."""
    remaining = dict(schema.tables)
    ordered: list[TableDef] = []
    emitted: set[str] = set()
    while remaining:
        progress = False
        for name in list(remaining):
            table = remaining[name]
            deps = {fk.ref_table for fk in table.foreign_keys if fk.ref_table != name}
            if deps <= emitted:
                ordered.append(table)
                emitted.add(name)
                del remaining[name]
                progress = True
        if not progress:
            # FK cycles: emit the rest in declaration order; FK columns then
            # reference whatever keys already exist (possible dangling refs are
            # acceptable for synthetic data).
            for name in list(remaining):
                ordered.append(remaining.pop(name))
                emitted.add(name)
    return ordered


def generate_database(
    schema: Schema,
    scale: float = 1.0,
    seed: int | np.random.Generator = 0,
    min_rows: int = 8,
) -> Database:
    """Materialise a synthetic database for ``schema``.

    Args:
        schema: Schema to instantiate.
        scale: Linear multiplier on each table's ``base_rows``.
        seed: RNG seed or generator.
        min_rows: Floor on per-table row counts, so tiny scales keep joins
            meaningful.

    Returns:
        A populated :class:`~repro.storage.database.Database`; each table
        declares its ``id`` and foreign-key columns indexed.
    """
    schema.validate()
    rng = new_rng(seed)
    database = Database(schema=schema, scale=scale)
    for table_def in _generation_order(schema):
        num_rows = max(min_rows, int(round(table_def.base_rows * scale)))
        columns: dict[str, np.ndarray] = {
            "id": np.arange(num_rows, dtype=np.int64)
        }
        for column in table_def.columns:
            referenced: np.ndarray | None = None
            fk = table_def.foreign_key_for(column.name)
            if fk is not None and fk.ref_table in database.tables:
                referenced = database.tables[fk.ref_table].columns[fk.ref_column]
            kind = column.kind
            if fk is not None and kind is not ColumnKind.FOREIGN_KEY:
                kind = ColumnKind.FOREIGN_KEY
            effective = ColumnDef(
                name=column.name,
                kind=kind,
                distinct=column.distinct,
                low=column.low,
                high=column.high,
                skew=column.skew,
                null_fraction=column.null_fraction,
            )
            columns[column.name] = _generate_column(rng, effective, num_rows, referenced)
        keys = frozenset(["id", *(fk.column for fk in table_def.foreign_keys)])
        database.add_table(Table(name=table_def.name, columns=columns, indexed=keys))
    return database
