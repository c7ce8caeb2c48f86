"""Tests for beam search and simulation bootstrapping.

``BeamSearchPlanner.search`` works on integer plan ids and builds a
``JoinNode`` only for a join it has not seen; it must still be the search
that built a node and a state object per candidate.  That search is kept
here as :func:`reference_search` (the code as it was before the rewrite) and
the two are compared over generated settings with tied scores everywhere.
"""

import dataclasses
import heapq
import itertools
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.cout import CoutCostModel
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.plans.builders import all_join_operators, all_scan_operators, scan
from repro.plans.nodes import JoinNode, PlanNode, ScanNode
from repro.plans.validation import validate_plan
from repro.search import beam as beam_module
from repro.search.beam import BeamSearchPlanner
from repro.simulation.augment import augment_data_point
from repro.simulation.collect import collect_simulation_data
from repro.simulation.trainer import train_simulation_model
from repro.workloads.benchmark import make_job_benchmark


SMALL_CONFIG = ValueNetworkConfig(
    query_hidden=16, query_embedding=8, tree_channels=(16, 8), head_hidden=8, seed=0
)


@pytest.fixture(scope="module")
def network(featurizer):
    return ValueNetwork(featurizer, SMALL_CONFIG)


# ---------------------------------------------------------------------- #
# The search as it was: one JoinNode and one state object per candidate
# ---------------------------------------------------------------------- #
class ReferenceState:
    """Member plans in fingerprint order; identity is the joined fingerprints."""

    def __init__(self, plans):
        self.plans = tuple(sorted(plans, key=PlanNode.fingerprint))
        self.fingerprint = "|".join(map(PlanNode.fingerprint, self.plans))

    def replace_pair(self, i, j, joined):
        low, high = (i, j) if i < j else (j, i)
        plans = self.plans
        return ReferenceState(
            plans[:low] + plans[low + 1 : high] + plans[high + 1 :] + (joined,)
        )


@dataclasses.dataclass
class ReferenceEntry:
    score: float
    order: int
    state: ReferenceState = dataclasses.field(compare=False)

    def __lt__(self, other):
        return (self.score, self.order) < (other.score, other.order)


def reference_expand(query, state, enumerate_scan_operators):
    def variants(plan):
        if isinstance(plan, ScanNode) and enumerate_scan_operators:
            return [plan.with_operator(op) for op in all_scan_operators()]
        return [plan]

    plans = state.plans
    forms = [variants(plan) for plan in plans]
    connected = {
        (i, j)
        for i in range(len(plans))
        for j in range(i + 1, len(plans))
        if query.joins_between(plans[i].leaf_aliases, plans[j].leaf_aliases)
    }
    children = []
    for i in range(len(plans)):
        for j in range(len(plans)):
            if (i, j) not in connected and (j, i) not in connected:
                continue
            for left in forms[i]:
                for right in forms[j]:
                    for operator in all_join_operators():
                        joined = JoinNode(left, right, operator)
                        children.append((joined, state.replace_pair(i, j, joined)))
    return children


def reference_search(query, predict, beam_size, k, enumerate_scan_operators, max_expansions):
    """``(plan fingerprints, predicted latencies, states expanded, plans scored)``."""
    plan_scores = {}
    counter = 0

    def score_plans(plans):
        unseen = {}
        for plan in plans:
            if plan.fingerprint() not in plan_scores:
                unseen[plan.fingerprint()] = plan
        if not unseen:
            return
        for fingerprint, value in zip(unseen, predict(query, list(unseen.values()))):
            plan_scores[fingerprint] = float(value)

    def state_score(state):
        return max(plan_scores[p.fingerprint()] for p in state.plans)

    root_plans = [scan(query, alias) for alias in query.aliases]
    score_plans(root_plans)
    root = ReferenceState(root_plans)
    if len(root.plans) == 1:
        fingerprint = root.plans[0].fingerprint()
        return [fingerprint], [plan_scores[fingerprint]], 0, len(plan_scores)

    beam = [ReferenceEntry(state_score(root), counter, root)]
    complete = {}
    visited = {root.fingerprint}
    expansions = 0
    while beam and len(complete) < k and expansions < max_expansions:
        state = heapq.heappop(beam).state
        expansions += 1
        children = reference_expand(query, state, enumerate_scan_operators)
        if not children:
            continue
        score_plans([joined for joined, _ in children])
        for _, child in children:
            if child.fingerprint in visited:
                continue
            visited.add(child.fingerprint)
            if len(child.plans) == 1:
                fingerprint = child.plans[0].fingerprint()
                complete[fingerprint] = (fingerprint, plan_scores[fingerprint])
                continue
            counter += 1
            heapq.heappush(beam, ReferenceEntry(state_score(child), counter, child))
        if len(beam) > beam_size:
            beam = heapq.nsmallest(beam_size, beam)
            heapq.heapify(beam)

    ordered = sorted(complete.values(), key=lambda pair: pair[1])[:k]
    return (
        [fingerprint for fingerprint, _ in ordered],
        [value for _, value in ordered],
        expansions,
        len(plan_scores),
    )


JOB_QUERIES = make_job_benchmark(seed=0).all_queries()


def tied_scores(salt: int, levels: int):
    """A ``score_fn`` with only ``levels`` distinct answers, and a log of its batches."""
    batches: list[list[str]] = []

    def score(query, plans):
        assert all(isinstance(plan, (ScanNode, JoinNode)) for plan in plans)
        batches.append([plan.fingerprint() for plan in plans])
        return [
            0.5 * (1 + zlib.crc32(f"{salt}:{plan.fingerprint()}".encode()) % levels)
            for plan in plans
        ]

    return score, batches


def assert_same_search(query, beam_size, top_k, enumerate_scan_operators, max_expansions,
                       salt, levels):
    score, batches = tied_scores(salt, levels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(beam_module, "MAX_EXPANSIONS", max_expansions)
        planner = BeamSearchPlanner(beam_size, top_k, enumerate_scan_operators)
        result = planner.search(query, None, score_fn=score)
    wanted_score, wanted_batches = tied_scores(salt, levels)
    plans, latencies, expanded, scored = reference_search(
        query, wanted_score, beam_size, top_k, enumerate_scan_operators, max_expansions
    )
    assert batches == wanted_batches
    assert [plan.fingerprint() for plan in result.plans] == plans
    assert result.predicted_latencies == latencies
    assert result.states_expanded == expanded
    assert result.plans_scored == scored


class TestSameSearchAsTheReference:
    @given(
        query=st.sampled_from(JOB_QUERIES),
        beam_size=st.integers(1, 20),
        top_k=st.integers(1, 10),
        enumerate_scan_operators=st.booleans(),
        max_expansions=st.one_of(st.integers(0, 40), st.just(4000)),
        salt=st.integers(0, 2**16),
        levels=st.integers(1, 5),
    )
    @settings(max_examples=120, deadline=None)
    def test_plans_scores_counts_and_batches(self, **setting):
        """Scores take a handful of values, so ties are everywhere and the
        ``order`` counter decides most of what enters and leaves the beam."""
        assert_same_search(**setting)

    @pytest.mark.parametrize("enumerate_scan_operators", [False, True])
    def test_two_join_orders_reach_one_state(self, enumerate_scan_operators, monkeypatch):
        """``A⋈B`` then ``C⋈D`` and ``C⋈D`` then ``A⋈B`` are one state, whatever
        order its members were made in: searched to exhaustion with a beam
        that trims nothing, every distinct state is expanded exactly once."""
        query = next(q for q in JOB_QUERIES if len(q.aliases) == 4)
        operators = all_scan_operators() if enumerate_scan_operators else [None]
        root = frozenset(scan(query, alias) for alias in query.aliases)
        seen, frontier = {root}, [root]
        while frontier:
            state = frontier.pop()
            for left, right in itertools.permutations(state, 2):
                if not query.joins_between(left.leaf_aliases, right.leaf_aliases):
                    continue
                sides = [
                    [side.with_operator(op) for op in operators]
                    if isinstance(side, ScanNode) and enumerate_scan_operators
                    else [side]
                    for side in (left, right)
                ]
                for a, b, op in itertools.product(*sides, all_join_operators()):
                    child = state - {left, right} | {JoinNode(a, b, op)}
                    if child not in seen:
                        seen.add(child)
                        frontier.append(child)
        unfinished = sum(1 for state in seen if len(state) > 1)
        assert unfinished > 100

        score, _ = tied_scores(salt=7, levels=3)
        monkeypatch.setattr(beam_module, "MAX_EXPANSIONS", 10**6)
        planner = BeamSearchPlanner(10**6, 10**6, enumerate_scan_operators)
        result = planner.search(query, None, score_fn=score)
        assert result.states_expanded == unfinished
        assert len(result.plans) == len(seen) - unfinished
        assert_same_search(query, 10**6, 10**6, enumerate_scan_operators, 10**6, 7, 3)

    def test_two_relations_finish_in_one_expansion(self, three_table_query):
        """A state of one plan is terminal: it is a result, never expanded."""
        query = three_table_query.restricted_to(["t", "mc"])
        result = BeamSearchPlanner(20, 10**6).search(
            query, None, score_fn=tied_scores(0, 4)[0]
        )
        assert result.states_expanded == 1
        # 2 orders x 2 x 2 scan operators x 3 join operators.
        assert len(result.plans) == 24 and result.plans_scored == 26
        assert all(plan.leaf_aliases == frozenset({"t", "mc"}) for plan in result.plans)

    @pytest.mark.parametrize("argument", ["beam_size", "top_k"])
    def test_a_zero_width_search_is_refused(self, argument, three_table_query):
        """It used to answer an empty ``PlanResult`` that looked like success."""
        for value in (0, -1):
            with pytest.raises(ValueError, match=argument):
                BeamSearchPlanner(**{argument: value})
        BeamSearchPlanner(**{argument: 1})
        with pytest.raises(ValueError, match="top_k"):
            BeamSearchPlanner().search(
                three_table_query, None, score_fn=tied_scores(0, 4)[0], top_k=0
            )


class TestBeamSearch:
    def test_returns_valid_complete_plans(self, network, five_table_query):
        planner = BeamSearchPlanner(beam_size=5, top_k=4, enumerate_scan_operators=False)
        result = planner.search(five_table_query, network)
        assert 1 <= len(result.plans) <= 4
        for plan in result.plans:
            validate_plan(five_table_query, plan)

    def test_plans_sorted_by_predicted_latency(self, network, five_table_query):
        planner = BeamSearchPlanner(beam_size=5, top_k=4, enumerate_scan_operators=False)
        result = planner.search(five_table_query, network)
        assert result.predicted_latencies == sorted(result.predicted_latencies)

    def test_greedy_beam_size_one(self, network, three_table_query):
        planner = BeamSearchPlanner(beam_size=1, top_k=1, enumerate_scan_operators=False)
        result = planner.search(three_table_query, network)
        assert len(result.plans) >= 1
        validate_plan(three_table_query, result.best_plan)

    def test_scan_operator_enumeration_grows_candidates(self, network, three_table_query):
        small = BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False)
        large = BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=True)
        plans_without = small.search(three_table_query, network).plans_scored
        plans_with = large.search(three_table_query, network).plans_scored
        assert plans_with > plans_without

    def test_single_table_query(self, network, imdb_database):
        from repro.sql.query import Query, TableRef

        query = Query("single", (TableRef("title", "t"),))
        planner = BeamSearchPlanner(beam_size=2, top_k=1)
        result = planner.search(query, network)
        assert result.best_plan.leaf_aliases == frozenset({"t"})

    def test_planning_time_recorded(self, network, three_table_query):
        planner = BeamSearchPlanner(beam_size=2, top_k=2, enumerate_scan_operators=False)
        result = planner.search(three_table_query, network)
        assert result.planning_seconds > 0
        assert result.states_expanded > 0


class TestAugmentation:
    def test_one_point_per_subplan(self, three_table_query):
        q = three_table_query
        plan = JoinNode(JoinNode(scan(q, "t"), scan(q, "mc")), scan(q, "cn"))
        points = augment_data_point(q, plan, 42.0)
        assert len(points) == 5
        assert all(cost == 42.0 for _, _, cost in points)
        assert any(p.num_tables == 3 for _, p, _ in points)
        assert sum(1 for _, p, _ in points if p.num_tables == 1) == 3


class TestSimulationCollection:
    def test_collects_and_augments(self, estimator, three_table_query, five_table_query):
        dataset = collect_simulation_data(
            [three_table_query, five_table_query],
            CoutCostModel(estimator),
            max_points_per_query=None,
        )
        assert dataset.queries_collected == 2
        assert len(dataset) > 20
        assert dataset.collection_seconds > 0
        # Subplans inherit the overall candidate's cost: labels are positive.
        assert (dataset.labels() > 0).all()

    def test_skip_large_queries(self, estimator, five_table_query):
        dataset = collect_simulation_data(
            [five_table_query], CoutCostModel(estimator), skip_tables_above=5
        )
        assert dataset.queries_skipped == 1
        assert len(dataset) == 0

    def test_per_query_cap(self, estimator, five_table_query):
        dataset = collect_simulation_data(
            [five_table_query], CoutCostModel(estimator), max_points_per_query=50
        )
        assert len(dataset) == 50

    def test_merge(self, estimator, three_table_query, five_table_query):
        a = collect_simulation_data([three_table_query], CoutCostModel(estimator))
        b = collect_simulation_data([five_table_query], CoutCostModel(estimator))
        merged = a.merge(b)
        assert len(merged) == len(a) + len(b)
        assert merged.queries_collected == 2


class TestSimulationTraining:
    def test_train_simulation_model(self, estimator, featurizer, three_table_query):
        dataset = collect_simulation_data(
            [three_table_query], CoutCostModel(estimator), max_points_per_query=200
        )
        network, stats = train_simulation_model(
            dataset,
            featurizer,
            network_config=SMALL_CONFIG,
            max_epochs=3,
            batch_size=64,
        )
        assert stats.dataset_size == len(dataset)
        assert stats.train_seconds > 0
        plan = JoinNode(
            JoinNode(scan(three_table_query, "t"), scan(three_table_query, "mc")),
            scan(three_table_query, "cn"),
        )
        prediction = float(network.predict(three_table_query, [plan])[0])
        assert prediction > 0
