"""Beam search expands by joined pair and reads as the search it replaced.

The search records a joined pair's candidates in one call, decides whether
a known pair's child was generated before from the states expanded so far
instead of keeping every child in a set, and builds beam entries only for
the children that can survive the trim.  None of that may change a batch, a
plan, a prediction or a count, so the search is compared here with the
search as it was before — kept in this file as :func:`reference_search`,
the way ``tests/test_cold_path.py`` keeps its reference renderings — over
generated queries, beam settings, cold and warm stores and a scorer that
returns NaN and infinities.
"""

from __future__ import annotations

import time
import zlib
from bisect import bisect
from typing import Callable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.planning.envelope import PlanResult
from repro.plans.builders import all_join_operators, all_scan_operators, scan
from repro.plans.nodes import JoinOperator, PlanNode
from repro.plans.table import PlanTable
from repro.search import beam as beam_module
from repro.search.beam import BeamSearchPlanner
from repro.sql.query import Query
from repro.workloads.benchmark import make_job_benchmark

SMALL = dict(query_hidden=16, query_embedding=8, tree_channels=(16, 8), head_hidden=8)


def reference_search(
    planner: BeamSearchPlanner,
    query: Query,
    network: ValueNetwork,
    score_fn: Callable[[Query, Sequence[PlanNode]], Sequence[float]] | None = None,
    top_k: int | None = None,
    deadline: float | None = None,
) -> PlanResult:
    """``BeamSearchPlanner.search`` before pair blocks: one triple at a time,
    every generated child kept in ``visited``, a tuple per child, one sort."""
    started = time.perf_counter()
    k = planner.top_k if top_k is None else top_k
    predict = score_fn if score_fn is not None else network.predict

    table = PlanTable(query)
    for alias in query.aliases:
        table.add_scan(scan(query, alias))
    relations = len(table)
    scores: list[float | None] = [
        float(v) for v in predict(query, table.view(range(relations)))
    ]
    if relations == 1:
        return PlanResult(
            plans=[table.node(0)],
            predicted_latencies=[scores[0]],
            planning_seconds=time.perf_counter() - started,
            states_expanded=0,
            plans_scored=1,
            planner_name=planner.name,
        )

    scan_variants: dict[int, tuple[int, ...]] = {}
    if planner.enumerate_scan_operators:
        for member in range(relations):
            bare = table.node(member)
            scan_variants[member] = tuple(
                table.add_scan(bare.with_operator(op)) for op in all_scan_operators()
            )
        scores += [None] * (len(table) - relations)
    join_operators = all_join_operators()
    join_ids: dict[tuple[int, int, JoinOperator], int] = {}
    cover, reach = table.cover, table.reach

    def fingerprint(member: int) -> str:
        return table.node(member).fingerprint()

    root = tuple(sorted(range(relations), key=fingerprint))
    beam: list[tuple] = [(max(scores[:relations]), 0, root, None)]
    visited: set[tuple[int, ...]] = {tuple(range(relations))}
    complete: list[int] = []
    counter = 0
    expansions = 0
    out_of_budget = False

    while beam and len(complete) < k and expansions < beam_module.MAX_EXPANSIONS:
        if deadline is not None and time.perf_counter() >= deadline:
            out_of_budget = True
            break
        _, _, members, new = beam.pop(0)
        if new is not None:
            members = tuple(sorted(members + (new,), key=fingerprint))
        expansions += 1

        pairs = {}
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if reach[members[i]] & cover[members[j]]:
                    kept = members[:i] + members[i + 1 : j] + members[j + 1 :]
                    kept_score = max(scores[m] for m in kept) if kept else None
                    pairs[i, j] = pairs[j, i] = kept, tuple(sorted(kept)), kept_score

        inputs = [scan_variants.get(member) or (member,) for member in members]
        children: list[tuple[int, tuple[int, ...], float]] = []
        known = len(table)
        for (i, j), (kept, kept_ids, kept_score) in sorted(pairs.items()):
            for left in inputs[i]:
                for right in inputs[j]:
                    for operator in join_operators:
                        triple = (left, right, operator)
                        joined = join_ids.get(triple)
                        if joined is None:
                            (joined,) = table.add_joins(left, right, [triple])
                            join_ids[triple] = joined
                            child = kept_ids + (joined,)
                        else:
                            at = bisect(kept_ids, joined)
                            child = kept_ids[:at] + (joined,) + kept_ids[at:]
                            if child in visited:
                                continue
                        visited.add(child)
                        if kept:
                            children.append((joined, kept, kept_score))
                        else:
                            complete.append(joined)
        if len(table) > known:
            unseen = table.view(range(known, len(table)))
            scores += [float(v) for v in predict(query, unseen)]
        for joined, kept, kept_score in children:
            counter += 1
            beam.append((max(scores[joined], kept_score), counter, kept, joined))

        beam.sort()
        del beam[planner.beam_size :]

    ordered = sorted(complete, key=scores.__getitem__)[:k]
    return PlanResult(
        plans=[table.node(plan) for plan in ordered],
        predicted_latencies=[scores[plan] for plan in ordered],
        planning_seconds=time.perf_counter() - started,
        states_expanded=expansions,
        plans_scored=relations + len(join_ids),
        planner_name=planner.name,
        deadline_exceeded=out_of_budget,
    )


# ---------------------------------------------------------------------- #
# Generated searches
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bench():
    return make_job_benchmark(
        seed=0, fact_rows=100, num_queries=40, num_templates=40, size_range=(2, 12)
    )


#: What the stub answers for a plan whose salted hash lands on the key.
SPECIAL = {0: float("nan"), 1: float("inf"), 2: float("-inf")}


def stub_scorer(network: ValueNetwork, salt: int, every: int, by_height: bool):
    """A scorer that reads the nodes it is handed: the network's values cut
    to two significant digits, or each plan's height (so scores tie, and
    the beam widens and reaches states by more than one path), and for
    about one plan in ``every / 3`` a NaN or an infinity instead
    (``every == 0``: none)."""

    def score(query: Query, plans: Sequence[PlanNode]) -> list[float]:
        nodes = list(plans)
        values = []
        for node, value in zip(nodes, network.predict(query, nodes)):
            key = zlib.crc32(f"{salt}:{node.fingerprint()}".encode()) % every if every else -1
            plain = float(node.height) if by_height else float(f"{value:.2g}")
            values.append(SPECIAL.get(key, plain))
        return values

    return score


def recorded(score: Callable, batches: list[list[str]]) -> Callable:
    def record(query: Query, plans: Sequence[PlanNode]):
        batches.append([plan.fingerprint() for plan in plans])
        return score(query, plans)

    return record


def run(search, planner, query, network, scorer, salt, every):
    batches: list[list[str]] = []
    if scorer == "network":
        inner = network.predict
    else:
        inner = stub_scorer(network, salt, every, by_height=scorer == "height")
    result = search(planner, query, network, score_fn=recorded(inner, batches))
    return batches, result


def bits(values: Sequence[float]) -> list[str]:
    return [float.hex(float(value)) for value in values]


@given(
    data=st.data(),
    beam_size=st.sampled_from([1, 2, 20]),
    top_k=st.sampled_from([1, 10]),
    enumerate_scans=st.booleans(),
    warm=st.booleans(),
    scorer=st.sampled_from(["network", "stub", "height"]),
    salt=st.integers(0, 2**16),
    every=st.sampled_from([0, 5, 24]),
)
@settings(max_examples=100, deadline=None)
def test_the_search_is_the_reference_search(
    bench, data, beam_size, top_k, enumerate_scans, warm, scorer, salt, every
):
    queries = [q for q in bench.all_queries() if 2 <= len(q.aliases) <= 11]
    query = data.draw(st.sampled_from(queries))
    planner = BeamSearchPlanner(beam_size, top_k, enumerate_scan_operators=enumerate_scans)
    # Two networks with one history: the stores each search reads match.
    networks = [ValueNetwork(bench.featurizer, ValueNetworkConfig(seed=1, **SMALL)) for _ in "ab"]
    if warm:
        for network in networks:
            reference_search(BeamSearchPlanner(3, 2), query, network)
    want_batches, want = run(
        reference_search, planner, query, networks[0], scorer, salt, every
    )
    got_batches, got = run(
        BeamSearchPlanner.search, planner, query, networks[1], scorer, salt, every
    )
    assert got_batches == want_batches
    assert [plan.fingerprint() for plan in got.plans] == [
        plan.fingerprint() for plan in want.plans
    ]
    assert bits(got.predicted_latencies) == bits(want.predicted_latencies)
    assert got.states_expanded == want.states_expanded
    assert got.plans_scored == want.plans_scored
    assert got.plans_scored == sum(map(len, got_batches))


def test_generated_queries_span_two_to_eleven_relations(bench):
    sizes = {len(q.aliases) for q in bench.all_queries() if len(q.aliases) <= 11}
    assert min(sizes) == 2 and max(sizes) == 11
