"""Query representation for select-project-join (SPJ) blocks.

Balsa optimizes SPJ blocks (paper §2, "Assumptions").  A query is a set of
table references, a conjunction of single-table filter predicates and a
conjunction of equality join predicates.  :class:`repro.sql.Query` captures
exactly that, plus helpers (join graph, per-alias filters).
"""

from repro.sql.expr import (
    ComparisonOp,
    FilterPredicate,
    JoinPredicate,
    evaluate_filter,
)
from repro.sql.query import Query, TableRef

__all__ = [
    "ComparisonOp",
    "FilterPredicate",
    "JoinPredicate",
    "evaluate_filter",
    "Query",
    "TableRef",
]
