"""Incremental scoring answers what the full forward pass answers.

``ValueNetwork.predict`` keeps, per scored subplan, its row at every
tree-convolution layer and its pooled vector, and convolves only the nodes
that are new.  The padded full pass — ``predict_examples`` over
``featurize``d plans, which training and the scorer processes still run — is
the reference every test here compares with: over generated plan trees and
the benchmark's eight cycle queries, on a cold and a warm store, across
evictions, across every way the weights can change, and under contention.
Plans reach ``predict`` as trees or as a ``PlanView`` of a search's plan
table (ids and ``(left, right, operator)`` triples, no tree): both are held
to the same reference, and to each other.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.model.value_network as value_network
from repro.cardinality.estimator import HistogramEstimator
from repro.featurization.featurizer import QueryPlanFeaturizer
from repro.model.trainer import ValueNetworkTrainer
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode, ScanOperator
from repro.plans.table import PlanTable
from repro.scoring import make_scoring_backend
from repro.search.beam import BeamSearchPlanner
from repro.workloads.benchmark import make_job_benchmark

SMALL = dict(query_hidden=16, query_embedding=8, tree_channels=(16, 8), head_hidden=8)


def assert_same(got, want) -> None:
    """Equal up to the order of float64 sums.

    ``rtol`` is the contract.  ``atol`` covers predictions near zero: they
    are ``expm1`` of a head output whose terms, of size about one, cancelled,
    so their error is a few hundred ulps of one, whatever the value left.
    """
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


@contextlib.contextmanager
def row_budget(rows: int):
    """The store's row budget forced to ``rows`` (it is read at every call)."""
    normal = value_network._STORE_ROWS
    value_network._STORE_ROWS = rows
    try:
        yield
    finally:
        value_network._STORE_ROWS = normal


def reference(network: ValueNetwork, query, plans) -> np.ndarray:
    featurizer = network.featurizer
    return network.predict_examples([featurizer.featurize(query, plan) for plan in plans])


@pytest.fixture(scope="module")
def bench():
    return make_job_benchmark(seed=0)


@pytest.fixture(scope="module")
def queries(bench):
    """The planning benchmark's cycle: the first query of 4, 5, ... 11 relations."""
    first: dict[int, object] = {}
    for query in bench.all_queries():
        first.setdefault(len(query.aliases), query)
    return list(first.values())


def small_network(bench, seed: int = 0) -> ValueNetwork:
    return ValueNetwork(bench.featurizer, ValueNetworkConfig(seed=seed, **SMALL))


@st.composite
def plan_trees(draw, query, complete: bool = False) -> PlanNode:
    """A plan of any shape and operators over ``query``'s aliases (all of
    them when ``complete``), whether or not its joins have predicates."""
    aliases = list(draw(st.permutations(query.aliases)))
    if not complete:
        aliases = aliases[: draw(st.integers(1, len(aliases)))]
    leaves = [
        ScanNode(alias, query.alias_to_table[alias], draw(st.sampled_from(list(ScanOperator))))
        for alias in aliases
    ]

    def build(nodes: list[PlanNode]) -> PlanNode:
        if len(nodes) == 1:
            return nodes[0]
        cut = draw(st.integers(1, len(nodes) - 1))
        return JoinNode(
            build(nodes[:cut]), build(nodes[cut:]), draw(st.sampled_from(list(JoinOperator)))
        )

    return build(leaves)


def searched_batches(query, network, planner=None) -> tuple[object, list[list[PlanNode]], list]:
    """One beam search: its result, and every batch it scored with the answers."""
    batches: list[list[PlanNode]] = []
    answers: list[np.ndarray] = []

    def score(scored_query, plans):
        batches.append(list(plans))
        answers.append(network.predict(scored_query, plans))
        return answers[-1]

    planner = planner or BeamSearchPlanner(beam_size=5, top_k=3)
    return planner.search(query, network, score_fn=score), batches, answers


# ---------------------------------------------------------------------- #
# Generated plans
# ---------------------------------------------------------------------- #
class TestGeneratedPlans:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cold_then_warm(self, bench, queries, data):
        query = data.draw(st.sampled_from(queries))
        plans = data.draw(st.lists(plan_trees(query), min_size=1, max_size=6))
        network = small_network(bench)
        cold = network.predict(query, plans)
        assert_same(cold, reference(network, query, plans))
        # A hit serves the pooled vector the miss stored.
        assert np.array_equal(network.predict(query, plans), cold)
        for plan, value in zip(plans, cold):
            assert_same(network.predict_one(query, plan), value)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_subplans_and_whole_plans_repeated_in_one_call(self, bench, queries, data):
        """Children assigned a slot earlier in the same call have no rows
        yet; a parent must wait for them all the same."""
        query = data.draw(st.sampled_from(queries))
        plans = data.draw(st.lists(plan_trees(query), min_size=1, max_size=4))
        batch = (
            plans
            + plans[::-1]
            + [subplan for plan in plans for subplan in plan.iter_subplans()]
            + [JoinNode(plan.left, plan.right, operator)
               for plan in plans if isinstance(plan, JoinNode) for operator in JoinOperator]
        )
        data.draw(st.randoms(use_true_random=False)).shuffle(batch)
        network = small_network(bench)
        assert_same(network.predict(query, batch), reference(network, query, batch))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_two_queries_interleaved_call_by_call(self, bench, queries, data):
        """Both queries scan ``SeqScan(t)``: the same fingerprint, another row."""
        first, second = data.draw(
            st.lists(st.sampled_from(queries), min_size=2, max_size=2, unique_by=id)
        )
        pairs = [
            (query, data.draw(plan_trees(query)))
            for query in [first, second] * data.draw(st.integers(1, 4))
        ]
        network = small_network(bench)
        want = [reference(network, query, [plan])[0] for query, plan in pairs]
        assert_same([network.predict_one(query, plan) for query, plan in pairs], want)
        # And each query's plans as one call, on a warm and on a cold store.
        for query in (first, second):
            plans = [plan for scored, plan in pairs if scored is query]
            want = reference(network, query, plans)
            assert_same(network.predict(query, plans), want)
            network.bump_version()
            assert_same(network.predict(query, plans), want)

    @pytest.mark.parametrize("rows", [3, 40])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_a_tiny_row_budget(self, bench, queries, rows, data):
        """Three rows are full after any join: every call evicts, mid-call
        too, and a plan larger than the budget still gets its rows."""
        query = data.draw(st.sampled_from(queries))
        calls = data.draw(
            st.lists(st.lists(plan_trees(query), min_size=1, max_size=5), min_size=1, max_size=4)
        )
        network = small_network(bench)
        with row_budget(rows):
            for plans in calls:
                assert_same(network.predict(query, plans), reference(network, query, plans))
        largest = 2 * len(query.aliases) - 1
        assert len(network._store._masks) - 1 <= rows + largest


# ---------------------------------------------------------------------- #
# Plans handed over as a view of a plan table
# ---------------------------------------------------------------------- #
def interned(table: PlanTable, plan: PlanNode, ids: dict[str, int]) -> int:
    """``plan``'s id in ``table``; what is new of it is recorded, never built
    (``ids``: fingerprint -> id, the caller's memory of what it interned)."""
    ident = ids.get(plan.fingerprint())
    if ident is None:
        if isinstance(plan, ScanNode):
            ident = table.add_scan(plan)
        else:
            left = interned(table, plan.left, ids)
            right = interned(table, plan.right, ids)
            (ident,) = table.add_joins(left, right, [(left, right, plan.operator)])
        ids[plan.fingerprint()] = ident
    return ident


def stored_slots(network: ValueNetwork) -> int:
    return len(network._store._masks) - 1


class TestPlanViews:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_view_list_and_reference_agree_cold_and_warm(self, bench, queries, data):
        """Parents and their subplans new in one call: a parent's input has
        a slot, and an entry in the table's scratch, before it has rows."""
        query = data.draw(st.sampled_from(queries))
        plans = data.draw(st.lists(plan_trees(query), min_size=1, max_size=5))
        batch = plans + [subplan for plan in plans for subplan in plan.iter_subplans()]
        data.draw(st.randoms(use_true_random=False)).shuffle(batch)
        table, ids = PlanTable(query), {}
        view = table.view([interned(table, plan, ids) for plan in batch])
        assert len(view) == len(batch)

        by_view, by_list = small_network(bench), small_network(bench)
        cold = by_view.predict(query, view)
        assert [plan.fingerprint() for plan in view] == [plan.fingerprint() for plan in batch]
        assert_same(cold, reference(by_view, query, batch))
        assert_same(cold, by_list.predict(query, list(view)))
        assert stored_slots(by_view) == stored_slots(by_list)
        # Warm: a hit serves the pooled vector the miss stored, either way in.
        assert np.array_equal(by_view.predict(query, view), cold)
        assert np.array_equal(by_view.predict(query, list(view)), cold)
        # A slice is a view; not bit for bit, its head batch has another shape.
        assert_same(by_view.predict(query, view[1:]), cold[1:])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_key_space_for_both_entrances(self, bench, queries, data):
        """A subplan scored as a tree is a hit for a view, and the reverse —
        also for a second table, whose ids mean other plans."""
        query = data.draw(st.sampled_from(queries))
        plans = data.draw(st.lists(plan_trees(query), min_size=2, max_size=5))
        subplans = [subplan for plan in plans for subplan in plan.iter_subplans()]
        want = reference(small_network(bench), query, plans)

        def view_of(batch):
            table, ids = PlanTable(query), {}
            return table.view([interned(table, plan, ids) for plan in batch])

        trees_first = small_network(bench)
        trees_first.predict(query, subplans)
        slots = stored_slots(trees_first)
        assert_same(trees_first.predict(query, view_of(plans)), want)
        assert_same(trees_first.predict(query, view_of(plans[::-1])), want[::-1])
        assert stored_slots(trees_first) == slots

        view_first = small_network(bench)
        view_first.predict(query, view_of(subplans))
        assert stored_slots(view_first) == slots
        assert_same(view_first.predict(query, plans), want)
        assert_same(view_first.predict(query, view_of(plans[::-1])), want[::-1])
        assert stored_slots(view_first) == slots

    @pytest.mark.parametrize("rows", [3, 25, 32_768])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_a_table_growing_while_its_stores_come_and_go(self, bench, queries, rows, data):
        """One table, as a search grows it: each step scores new plans and
        joins over plans of earlier steps, by one of two networks, after
        whatever may happen to a store between two expansions — nothing, an
        eviction (the small budgets), a version bump, new weights, the same
        subplans arriving as trees."""
        query = data.draw(st.sampled_from(queries))
        networks = [small_network(bench, seed=0), small_network(bench, seed=5)]
        spare = small_network(bench, seed=9).get_state()
        table, ids = PlanTable(query), {}
        earlier: list[PlanNode] = []
        with row_budget(rows):
            for _ in range(data.draw(st.integers(2, 6))):
                plans = data.draw(st.lists(plan_trees(query), min_size=1, max_size=3))
                for left, right in zip(earlier[::2], earlier[1::2]):
                    if not left.leaf_aliases & right.leaf_aliases:
                        operator = data.draw(st.sampled_from(list(JoinOperator)))
                        plans.append(JoinNode(left, right, operator))
                view = table.view([interned(table, plan, ids) for plan in plans])
                network = data.draw(st.sampled_from(networks))
                event = data.draw(st.sampled_from(["nothing", "bump", "weights", "trees"]))
                if event == "bump":
                    network.bump_version()
                elif event == "weights":
                    network.set_state(spare)
                elif event == "trees":
                    lefts = [plan.left for plan in plans if isinstance(plan, JoinNode)]
                    network.predict(query, lefts)
                got = network.predict(query, view)
                assert_same(got, reference(network, query, plans))
                assert_same(network.predict(query, list(view)), got)
                earlier = plans + earlier


# ---------------------------------------------------------------------- #
# The cycle queries, searched
# ---------------------------------------------------------------------- #
class TestCycleQueries:
    @pytest.fixture(scope="class")
    def searched(self, bench, queries):
        """Fig. 14's network and planner over the cycle: the network, and per
        query every batch the search scored with the answers it got."""
        network = ValueNetwork(bench.featurizer, ValueNetworkConfig(seed=0))
        planner = BeamSearchPlanner(20, 10)
        return network, {
            query.name: searched_batches(query, network, planner)[1:] for query in queries
        }

    def test_batches_as_the_search_scored_them_and_again(self, queries, searched):
        """Cold: every child is a join on stored inputs.  Then all of a
        search's plans in one call, every one of them stored."""
        network, scored = searched
        for query in queries:
            batches, answers = scored[query.name]
            for plans, got in zip(batches, answers):
                assert_same(got, reference(network, query, plans))
            plans = [plan for batch in batches for plan in batch]
            # Not bit for bit: the head runs over a batch of another shape.
            assert_same(network.predict(query, plans), np.concatenate(answers))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_complete_plans_no_search_built(self, queries, searched, data):
        """They meet the store wherever the searches happened to leave rows."""
        network, _ = searched
        query = data.draw(st.sampled_from(queries))
        plans = data.draw(st.lists(plan_trees(query, complete=True), min_size=1, max_size=5))
        assert_same(network.predict(query, plans), reference(network, query, plans))

    def test_eviction_in_the_middle_of_a_search(self, bench, queries):
        query = max(queries, key=lambda query: len(query.aliases))
        network = small_network(bench)
        roomy, _, _ = searched_batches(query, network)
        network.bump_version()
        with row_budget(32):
            tight, batches, answers = searched_batches(query, network)
        assert sum(map(len, batches)) > 10 * 32, "the search no longer outgrows the budget"
        assert len(network._store._masks) - 1 <= 32 + 2 * len(query.aliases) - 1
        for plans, got in zip(batches, answers):
            assert_same(got, reference(network, query, plans))
        # The same values; plans whose pooled vectors tie may swap places.
        assert_same(tight.predicted_latencies, roomy.predicted_latencies)

    def test_weights_replaced_between_two_expansions(self, bench, queries):
        """The search's table outlives the store that scored its first
        levels: the new store rebuilds the inputs from the table's triples."""
        query = max(queries, key=lambda query: len(query.aliases))
        network = small_network(bench)
        spare = small_network(bench, seed=9).get_state()
        calls = 0

        def score(scored_query, plans):
            nonlocal calls
            calls += 1
            if calls == 4:
                network.bump_version()
            elif calls == 8:
                network.set_state(spare)
            got = network.predict(scored_query, plans)
            assert_same(got, reference(network, scored_query, list(plans)))
            return got

        result = BeamSearchPlanner(beam_size=5, top_k=3).search(query, network, score_fn=score)
        assert calls > 8 and result.plans


# ---------------------------------------------------------------------- #
# Nothing stored outlives the weights it came from
# ---------------------------------------------------------------------- #
def _edit_in_place_and_bump(network, other, _data):
    for parameter, replacement in zip(network.parameters(), other.parameters()):
        parameter.value[...] = replacement.value
    network.bump_version()


def _set_state(network, other, _data):
    network.set_state(other.get_state())


def _load_state_dict(network, other, _data):
    network.load_state_dict(other.state_dict())


def _fit(network, _other, data):
    examples, labels = data
    ValueNetworkTrainer(network, max_epochs=2, seed=1).fit(examples, labels)


class TestWeightsChange:
    @pytest.fixture()
    def warm(self, bench, queries):
        """A network whose store holds one search, and that search's plans."""
        query = queries[3]
        network = small_network(bench)
        _, batches, answers = searched_batches(query, network)
        plans = [plan for batch in batches for plan in batch]
        return network, query, plans, np.concatenate(answers)

    @pytest.mark.parametrize(
        "change", [_edit_in_place_and_bump, _set_state, _load_state_dict, _fit]
    )
    def test_new_weights_never_serve_an_old_value(self, bench, warm, change):
        network, query, plans, before = warm
        examples = [bench.featurizer.featurize(query, plan) for plan in plans]
        labels = np.linspace(1.0, 500.0, len(plans))
        change(network, small_network(bench, seed=9), (examples, labels))
        after = network.predict(query, plans)
        assert_same(after, reference(network, query, plans))
        assert not np.any(np.isclose(after, before, rtol=1e-6, atol=0.0))

    def test_a_refitted_label_transform_shows_without_a_bump(self, warm):
        network, query, plans, before = warm
        version = network.version
        network.fit_label_transform(np.array([10.0, 1_000.0, 100_000.0]))
        assert network.version == version
        after = network.predict(query, plans)
        assert_same(after, reference(network, query, plans))
        assert not np.any(np.isclose(after, before, rtol=1e-6, atol=0.0))

    def test_a_head_negated_in_place_shows_without_a_bump(self, warm):
        """How the server and lifecycle tests make a candidate bad."""
        network, query, plans, before = warm
        network.head_fc2.weight.value = -network.head_fc2.weight.value
        network.head_fc2.bias.value = -network.head_fc2.bias.value
        after = network.predict(query, plans)
        assert_same(after, reference(network, query, plans))
        assert_same(np.log1p(after), -np.log1p(before))

    def test_a_network_restored_from_a_checkpoint_alone_refuses_raw_plans(self, warm):
        network, query, plans, _ = warm
        restored = ValueNetwork.from_state_dict(network.state_dict())
        with pytest.raises(TypeError, match="cannot featurize"):
            restored.predict(query, plans)
        backend = make_scoring_backend("inproc", lambda: restored)
        with pytest.raises(TypeError, match="cannot featurize"):
            backend.submit(query, plans)

    def test_a_failed_call_leaves_no_slot_without_rows(self, warm):
        network, query, plans, before = warm
        network.bump_version()
        stranger = ScanNode("not_an_alias", "title")
        with pytest.raises(KeyError):
            # The walk gives plans[-1]'s nodes slots, then meets the stranger.
            network.predict(query, [JoinNode(plans[-1], stranger)])
        assert_same(network.predict(query, plans), before)


# ---------------------------------------------------------------------- #
# A query is its structure, not its name
# ---------------------------------------------------------------------- #
def test_two_queries_under_one_name_get_their_own_answers(bench):
    """``POST /v1/plan`` takes an inline query under a client-chosen name:
    q1b's tables and filters sent as "q1a", after q1a was scored, used to be
    answered from q1a's cached encoding, estimates and query embedding."""
    by_name = {query.name: query for query in bench.all_queries()}
    first, second = by_name["q1a"], by_name["q1b"]
    assert first.aliases == second.aliases and first.filters != second.filters
    impostor = dataclasses.replace(second, name=first.name)
    assert impostor.fingerprint() == second.fingerprint() != first.fingerprint()

    def fresh_network() -> ValueNetwork:
        featurizer = QueryPlanFeaturizer(
            bench.database.schema, HistogramEstimator(bench.database)
        )
        return ValueNetwork(featurizer, ValueNetworkConfig(seed=0, **SMALL))

    plans = BeamSearchPlanner(beam_size=3, top_k=3).search(first, fresh_network()).plans
    want = fresh_network().predict(second, plans)

    network = fresh_network()
    seen_first = network.predict(first, plans)
    got = network.predict(impostor, plans)
    assert np.array_equal(got, want)
    assert not np.any(np.isclose(got, seen_first, rtol=1e-6, atol=0.0))
    assert_same(got, reference(network, impostor, plans))
    assert_same(reference(network, impostor, plans), reference(fresh_network(), second, plans))
    # The first query's own answers are untouched.
    assert np.array_equal(network.predict(first, plans), seen_first)


# ---------------------------------------------------------------------- #
# One network, many lock domains
# ---------------------------------------------------------------------- #
def test_threads_sharing_a_network_score_consistently(bench, queries):
    """More threads than cores, switching every microsecond, on a store small
    enough to be evicted under them, while another thread bumps the version:
    a slot read before its rows were written, or rows of one query served to
    another, would show as a wrong prediction."""
    network = small_network(bench)
    work = []
    for query in queries[:4]:
        _, batches, _ = searched_batches(query, network)
        work += [(query, plans, reference(network, query, plans)) for plans in batches]
    network.bump_version()
    failures: list[BaseException] = []
    start = threading.Barrier(9)
    scoring = threading.Event()

    def score(seed: int) -> None:
        order = list(work)
        random.Random(seed).shuffle(order)
        try:
            start.wait(timeout=30)
            for query, plans, want in order:
                assert_same(network.predict(query, plans), want)
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    def bump() -> None:
        start.wait(timeout=30)
        while not scoring.wait(timeout=0.002):
            network.bump_version()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with row_budget(200):
            threads = [threading.Thread(target=score, args=(seed,)) for seed in range(8)]
            bumper = threading.Thread(target=bump)
            for thread in [*threads, bumper]:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            scoring.set()
            bumper.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in [*threads, bumper])
    assert not failures, failures[0]


# ---------------------------------------------------------------------- #
# The in-process backend is this path
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["inproc"])
class TestBackendsRouteThroughPredict:
    def test_submit_equals_predict(self, bench, queries, name):
        network = small_network(bench)
        backend = make_scoring_backend(name, lambda: network, max_batch_size=7)
        try:
            for query in queries[:3]:
                _, batches, answers = searched_batches(query, network)
                plans = [plan for batch in batches for plan in batch]
                # Warm: the search stored every plan; chunked seven at a time.
                assert_same(backend.submit(query, plans), np.concatenate(answers))
                network.bump_version()
                # Cold, through the backend first.
                got = backend.submit(query, plans, version=network)
                assert_same(got, reference(network, query, plans))
                assert_same(network.predict(query, plans), got)
            stats = backend.stats()
            assert stats.max_batch_examples == 7
            assert stats.forward_batches >= stats.examples / 7
        finally:
            backend.close()

    def test_no_featurize_no_full_forward(self, bench, queries, name, monkeypatch):
        """One in-process inference path: a submit never pads a batch."""
        network = small_network(bench)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the backend took the full forward path")

        monkeypatch.setattr(network, "predict_examples", forbidden)
        monkeypatch.setattr(network, "forward", forbidden)
        monkeypatch.setattr(network.featurizer, "featurize", forbidden)
        backend = make_scoring_backend(name, lambda: network)
        try:
            result = BeamSearchPlanner(beam_size=3, top_k=2).search(
                queries[0], network, score_fn=backend.submit
            )
            assert result.plans
        finally:
            backend.close()
