"""The SPJ :class:`Query` object and its join graph."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Mapping

from repro.sql.expr import FilterPredicate, JoinPredicate


@dataclass(frozen=True)
class TableRef:
    """A reference to a base table under an alias.

    Attributes:
        table: Physical table name in the catalog.
        alias: Alias used inside the query (unique per query).  Several
            references may point at the same physical table with different
            aliases, as is common in the Join Order Benchmark.
    """

    table: str
    alias: str


@dataclass(frozen=True)
class Query:
    """A select-project-join query block.

    Attributes:
        name: Identifier used in workloads and reports (e.g. ``"q7b"``).
        tables: Table references (at least one).
        joins: Equi-join predicates connecting the aliases.  The induced join
            graph must be connected for the query to be plannable without
            cross products.
        filters: Single-table filter predicates.
    """

    name: str
    tables: tuple[TableRef, ...]
    joins: tuple[JoinPredicate, ...] = ()
    filters: tuple[FilterPredicate, ...] = ()

    def __post_init__(self) -> None:
        aliases = [t.alias for t in self.tables]
        if len(aliases) != len(set(aliases)):
            raise ValueError(f"query {self.name!r} has duplicate aliases: {aliases}")
        alias_set = set(aliases)
        for join in self.joins:
            if join.left_alias not in alias_set or join.right_alias not in alias_set:
                raise ValueError(
                    f"query {self.name!r}: join {join.describe()} references an "
                    "alias not in the FROM list"
                )
        for flt in self.filters:
            if flt.alias not in alias_set:
                raise ValueError(
                    f"query {self.name!r}: filter {flt.describe()} references an "
                    "alias not in the FROM list"
                )

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @cached_property
    def aliases(self) -> tuple[str, ...]:
        """All aliases in FROM-list order."""
        return tuple(t.alias for t in self.tables)

    @cached_property
    def alias_to_table(self) -> Mapping[str, str]:
        """Mapping from alias to physical table name."""
        return {t.alias: t.table for t in self.tables}

    @property
    def num_tables(self) -> int:
        """Number of joined relations."""
        return len(self.tables)

    @property
    def num_joins(self) -> int:
        """Number of join predicates."""
        return len(self.joins)

    @cached_property
    def join_graph(self) -> Mapping[str, tuple[str, ...]]:
        """The join graph: every alias, in FROM-list order, to the aliases a
        join predicate connects it to, in the order the joins first mention
        them."""
        neighbours: dict[str, list[str]] = {alias: [] for alias in self.aliases}
        for join in self.joins:
            a, b = join.left_alias, join.right_alias
            if a != b and b not in neighbours[a]:
                neighbours[a].append(b)
                neighbours[b].append(a)
        return {alias: tuple(adjacent) for alias, adjacent in neighbours.items()}

    def breadth_first(self, start: str, within: Collection[str] | None = None) -> list[str]:
        """The aliases reachable from ``start`` over the join graph, breadth first.

        Neighbours are visited in :attr:`join_graph` order, so the order is
        deterministic.  With ``within``, only aliases in it are walked through.
        """
        graph = self.join_graph
        order = [start]
        seen = {start}
        for alias in order:  # ``order`` grows while it is read: the queue
            for neighbour in graph[alias]:
                if neighbour not in seen and (within is None or neighbour in within):
                    seen.add(neighbour)
                    order.append(neighbour)
        return order

    def is_connected(self) -> bool:
        """Whether the join graph is connected (no cross products required)."""
        if self.num_tables <= 1:
            return True
        return len(self.breadth_first(self.aliases[0])) == self.num_tables

    def filters_for(self, alias: str) -> tuple[FilterPredicate, ...]:
        """Filters applying to ``alias``."""
        return tuple(f for f in self.filters if f.alias == alias)

    def joins_between(
        self, left: Iterable[str], right: Iterable[str]
    ) -> tuple[JoinPredicate, ...]:
        """Join predicates connecting any alias in ``left`` with any in ``right``."""
        left_set, right_set = set(left), set(right)
        found = []
        for join in self.joins:
            a, b = join.left_alias, join.right_alias
            if (a in left_set and b in right_set) or (a in right_set and b in left_set):
                found.append(join)
        return tuple(found)

    def joins_within(self, aliases: Iterable[str]) -> tuple[JoinPredicate, ...]:
        """Join predicates fully contained in the alias set."""
        alias_set = set(aliases)
        return tuple(
            j
            for j in self.joins
            if j.left_alias in alias_set and j.right_alias in alias_set
        )

    def connected_subset(self, aliases: Iterable[str]) -> bool:
        """Whether ``aliases`` induce a connected subgraph of the join graph.

        Raises:
            ValueError: Some of ``aliases`` are not aliases of this query.
        """
        alias_set = set(aliases)
        unknown = alias_set.difference(self.alias_to_table)
        if unknown:
            raise ValueError(f"query {self.name!r} has no aliases {sorted(unknown)}")
        if len(alias_set) <= 1:
            return True
        start = next(iter(alias_set))
        return len(self.breadth_first(start, within=alias_set)) == len(alias_set)

    def restricted_to(self, aliases: Iterable[str], name: str | None = None) -> "Query":
        """Return the query restricted to a subset of its aliases.

        Used by simulation data collection (paper §3.2): each enumerated
        subplan ``T`` is paired with ``query=T``, i.e. the original query
        restricted to the tables and filters of ``T``.
        """
        alias_set = set(aliases)
        tables = tuple(t for t in self.tables if t.alias in alias_set)
        joins = self.joins_within(alias_set)
        filters = tuple(f for f in self.filters if f.alias in alias_set)
        return Query(
            name=name or f"{self.name}[{'+'.join(sorted(alias_set))}]",
            tables=tables,
            joins=joins,
            filters=filters,
        )

    def fingerprint(self) -> str:
        """A stable structural identity for the query.

        Two queries with the same tables, join predicates and filters share a
        fingerprint even if their :attr:`name` differs, so a plan cache keyed
        on it serves repeated traffic regardless of how requests are labelled.
        Tables, joins (in canonical orientation) and filters are sorted before
        hashing, making the fingerprint insensitive to FROM-list order.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        tables = sorted(f"{t.table} AS {t.alias}" for t in self.tables)
        joins = sorted(j.normalized().describe() for j in self.joins)
        filters = sorted(f.describe() for f in self.filters)
        canonical = "|".join(["T:" + ";".join(tables), "J:" + ";".join(joins),
                              "F:" + ";".join(filters)])
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class QuerySet:
    """A named collection of queries (a workload split).

    Attributes:
        name: Split name, e.g. ``"job/train"``.
        queries: The queries in the split.
    """

    name: str
    queries: list[Query] = field(default_factory=list)

    def __iter__(self):
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, idx: int) -> Query:
        return self.queries[idx]

    def by_name(self, name: str) -> Query:
        """Look a query up by its name."""
        for query in self.queries:
            if query.name == name:
                return query
        raise KeyError(f"no query named {name!r} in {self.name}")

    def names(self) -> list[str]:
        """All query names, in order."""
        return [q.name for q in self.queries]
