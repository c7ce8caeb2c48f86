"""A JOB-like workload generator over the synthetic IMDb schema.

The real Join Order Benchmark has 113 queries instantiated from 33 join
templates (3–16 joins, averaging 8 joins per query), built around the ``title``
hub with self-joined dimension tables (two ``info_type`` aliases, etc.) and
correlated filters.  This generator reproduces that structure:

- a fixed alias-level join graph mirroring JOB's (``t`` at the centre, fact
  tables ``mc``/``mi``/``mi_idx``/``mk``/``ci``/``ml`` around it, dimensions
  behind them);
- templates are connected subgraphs of that alias graph, sampled to match
  JOB's size distribution;
- each template yields several variants ("a", "b", ...) that share the join
  graph but draw different filter literals, exactly like JOB's 113 = 33 x ~3.4
  queries.

Ext-JOB (the hard generalisation workload of §8.5) is generated from a
*disjoint* pool of templates with different shapes and filter combinations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sql.expr import ComparisonOp, FilterPredicate, JoinPredicate
from repro.sql.query import Query, TableRef
from repro.utils.rng import new_rng

#: Alias-level nodes of the JOB-like join graph: alias -> physical table.
JOB_ALIASES: dict[str, str] = {
    "t": "title",
    "kt": "kind_type",
    "mc": "movie_companies",
    "cn": "company_name",
    "ct": "company_type",
    "mi": "movie_info",
    "it1": "info_type",
    "mi_idx": "movie_info_idx",
    "it2": "info_type",
    "mk": "movie_keyword",
    "k": "keyword",
    "ci": "cast_info",
    "n": "name",
    "rt": "role_type",
    "chn": "char_name",
    "ml": "movie_link",
    "lt": "link_type",
}

#: Alias-level join edges (alias, column, alias, column), mirroring JOB's
#: PK/FK equi-joins.
JOB_EDGES: list[tuple[str, str, str, str]] = [
    ("t", "kind_id", "kt", "id"),
    ("t", "id", "mc", "movie_id"),
    ("mc", "company_id", "cn", "id"),
    ("mc", "company_type_id", "ct", "id"),
    ("t", "id", "mi", "movie_id"),
    ("mi", "info_type_id", "it1", "id"),
    ("t", "id", "mi_idx", "movie_id"),
    ("mi_idx", "info_type_id", "it2", "id"),
    ("t", "id", "mk", "movie_id"),
    ("mk", "keyword_id", "k", "id"),
    ("t", "id", "ci", "movie_id"),
    ("ci", "person_id", "n", "id"),
    ("ci", "role_id", "rt", "id"),
    ("ci", "person_role_id", "chn", "id"),
    ("t", "id", "ml", "movie_id"),
    ("ml", "link_type_id", "lt", "id"),
]

#: Filter slots: alias -> list of (column, kind) the generator may filter on.
#: ``kind`` selects how literals are drawn.
JOB_FILTER_SLOTS: dict[str, list[tuple[str, str]]] = {
    "t": [("production_year", "year"), ("kind_id", "small_eq"), ("episode_nr", "range")],
    "kt": [("kind", "small_eq")],
    "cn": [("country_code", "cat_eq"), ("name_group", "cat_in")],
    "ct": [("kind", "small_eq")],
    "mc": [("note_group", "cat_in")],
    "mi": [("info_group", "cat_in")],
    "it1": [("info", "cat_in")],
    "mi_idx": [("info_rank", "range")],
    "it2": [("info", "cat_eq")],
    "k": [("keyword_group", "cat_in")],
    "ci": [("role_id", "small_in"), ("nr_order", "range")],
    "n": [("gender", "small_eq"), ("name_group", "cat_in")],
    "rt": [("role", "small_eq")],
    "chn": [("name_group", "cat_in")],
    "lt": [("link", "small_eq")],
}


@dataclass
class JobTemplate:
    """One join template: an alias set plus its filterable slots."""

    template_id: int
    aliases: tuple[str, ...]


def _alias_graph() -> dict[str, list[tuple[str, str, str]]]:
    """Adjacency list: alias -> [(neighbour, own column, neighbour column)]."""
    adjacency: dict[str, list[tuple[str, str, str]]] = {a: [] for a in JOB_ALIASES}
    for left, left_col, right, right_col in JOB_EDGES:
        adjacency[left].append((right, left_col, right_col))
        adjacency[right].append((left, right_col, left_col))
    return adjacency


def _sample_template(
    rng: np.random.Generator, template_id: int, num_tables: int, required: str = "t"
) -> JobTemplate:
    """Sample a connected alias subset of the requested size via a random walk."""
    adjacency = _alias_graph()
    chosen = {required}
    frontier = list(adjacency[required])
    while len(chosen) < num_tables and frontier:
        weights = np.array(
            [2.0 if n in ("mc", "mi", "ci", "mk", "mi_idx") else 1.0 for n, _, _ in frontier]
        )
        idx = rng.choice(len(frontier), p=weights / weights.sum())
        neighbour, _, _ = frontier.pop(idx)
        if neighbour in chosen:
            continue
        chosen.add(neighbour)
        frontier.extend(
            (n, a, b) for n, a, b in adjacency[neighbour] if n not in chosen
        )
    return JobTemplate(template_id=template_id, aliases=tuple(sorted(chosen)))


def _joins_for(aliases: set[str]) -> tuple[JoinPredicate, ...]:
    """All JOB edges fully inside ``aliases``."""
    return tuple(
        JoinPredicate(left, left_col, right, right_col)
        for left, left_col, right, right_col in JOB_EDGES
        if left in aliases and right in aliases
    )


def _draw_filter(
    rng: np.random.Generator, alias: str, column: str, kind: str
) -> FilterPredicate:
    """Draw a literal for a filter slot."""
    if kind == "year":
        low = int(rng.integers(1930, 2005))
        if rng.random() < 0.5:
            return FilterPredicate(alias, column, ComparisonOp.GT, low)
        return FilterPredicate(alias, column, ComparisonOp.BETWEEN, (low, low + int(rng.integers(5, 40))))
    if kind == "range":
        low = int(rng.integers(0, 30))
        return FilterPredicate(alias, column, ComparisonOp.LE, low)
    if kind == "small_eq":
        return FilterPredicate(alias, column, ComparisonOp.EQ, int(rng.integers(0, 5)))
    if kind == "small_in":
        values = tuple(sorted(set(int(v) for v in rng.integers(0, 10, size=3))))
        return FilterPredicate(alias, column, ComparisonOp.IN, values)
    if kind == "cat_eq":
        return FilterPredicate(alias, column, ComparisonOp.EQ, int(rng.integers(0, 20)))
    if kind == "cat_in":
        size = int(rng.integers(2, 6))
        values = tuple(sorted(set(int(v) for v in rng.integers(0, 40, size=size))))
        return FilterPredicate(alias, column, ComparisonOp.IN, values)
    raise ValueError(f"unknown filter kind {kind!r}")


def _make_variant(
    rng: np.random.Generator, template: JobTemplate, name: str, num_filters: int
) -> Query:
    """Instantiate one query from a template."""
    aliases = set(template.aliases)
    tables = tuple(TableRef(JOB_ALIASES[a], a) for a in template.aliases)
    joins = _joins_for(aliases)
    slots = [
        (alias, column, kind)
        for alias in template.aliases
        for column, kind in JOB_FILTER_SLOTS.get(alias, [])
    ]
    rng.shuffle(slots)
    filters = tuple(
        _draw_filter(rng, alias, column, kind)
        for alias, column, kind in slots[: min(num_filters, len(slots))]
    )
    return Query(name=name, tables=tables, joins=joins, filters=filters)


def _template_sizes(rng: np.random.Generator, num_templates: int, size_range: tuple[int, int]) -> list[int]:
    """Template sizes roughly matching JOB's distribution (avg ~8 tables)."""
    low, high = size_range
    sizes = rng.normal(loc=(low + high) / 2.0, scale=(high - low) / 4.0, size=num_templates)
    return [int(np.clip(round(s), low, high)) for s in sizes]


def make_job_queries(
    num_queries: int = 113,
    num_templates: int = 33,
    seed: int = 0,
    size_range: tuple[int, int] = (4, 12),
    filters_per_query: tuple[int, int] = (2, 5),
) -> tuple[list[Query], dict[str, int]]:
    """Generate the JOB-like workload.

    Args:
        num_queries: Total number of queries (113 in the paper).
        num_templates: Number of join templates (33 in the paper).
        seed: RNG seed.
        size_range: Min/max relations per template.
        filters_per_query: Min/max filter predicates per query.

    Returns:
        ``(queries, template_of)`` where ``template_of`` maps query name to its
        template id (used by the template-based splits).
    """
    rng = new_rng(seed)
    sizes = _template_sizes(rng, num_templates, size_range)
    templates = [
        _sample_template(rng, template_id=i, num_tables=size)
        for i, size in enumerate(sizes)
    ]
    queries: list[Query] = []
    template_of: dict[str, int] = {}
    letters = "abcdefghij"
    variant_counts = np.full(num_templates, num_queries // num_templates)
    variant_counts[: num_queries % num_templates] += 1
    for template, count in zip(templates, variant_counts):
        for v in range(int(count)):
            name = f"q{template.template_id + 1}{letters[v % len(letters)]}"
            num_filters = int(rng.integers(filters_per_query[0], filters_per_query[1] + 1))
            query = _make_variant(rng, template, name, num_filters)
            queries.append(query)
            template_of[name] = template.template_id
    return queries, template_of


def make_ext_job_queries(
    num_queries: int = 24,
    seed: int = 1234,
    size_range: tuple[int, int] = (3, 8),
) -> list[Query]:
    """Generate the Ext-JOB-like out-of-distribution workload (§8.5).

    Uses a different seed space, smaller join counts (2–10 joins, averaging ~5)
    and different filter draws so the join templates and predicates differ from
    the training workload.
    """
    rng = new_rng(seed)
    queries: list[Query] = []
    for i in range(num_queries):
        size = int(rng.integers(size_range[0], size_range[1] + 1))
        template = _sample_template(rng, template_id=1000 + i, num_tables=size)
        num_filters = int(rng.integers(1, 4))
        queries.append(_make_variant(rng, template, f"ext{i + 1}", num_filters))
    return queries
