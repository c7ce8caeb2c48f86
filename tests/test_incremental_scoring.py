"""Incremental scoring answers what the full forward pass answers.

``ValueNetwork.predict`` keeps, per scored subplan, its row at every
tree-convolution layer and its pooled vector, and convolves only the nodes
that are new.  The padded full pass — ``predict_examples`` over
``featurize``d plans, which training and the scorer processes still run — is
the reference every test here compares with: over generated plan trees and
the benchmark's eight cycle queries, on a cold and a warm store, across
evictions, across every way the weights can change, and under contention.
"""

from __future__ import annotations

import contextlib
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.model.value_network as value_network
from repro.model.trainer import ValueNetworkTrainer
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode, ScanOperator
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
        # And as one coalesced pass, on a warm and on a cold store.
        assert_same(network.predict_pairs(pairs), want)
        network.bump_version()
        assert_same(network.predict_pairs(pairs), want)

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
