"""The activation store keeps what a parent reads, and answers bit for bit.

``_ActivationStore`` keeps per slot its pooled vector and two ids, its
interned feature row and its query's embedding row, and gives a slot its
output of every inner tree-conv layer only once something joins onto it.
Layer 0's input is gathered from the ids and the last layer's output never
leaves the call that pools it.  ``FullRowStore`` below is the layout the
store had before: every slot kept its layer-0 input row and its output of
every layer.  Both stores run the same arithmetic on the same values, and a
row of a product of two or more rows does not depend on the product's other
rows, so every ``predict`` must be *equal* — not close — to the full-row
store's, over generated call sequences: cold and warm views of two queries'
plan tables and plain trees, subplans repeated within one call, a row budget
small enough to evict mid-call, version bumps, a second network scoring the
same tables, and a slot scored as a root becoming an input (materialised).
Then the footprint: bytes per slot, which slots hold rows, and the zero rows
the absent child of a scan reads.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.model.value_network as value_network
from repro.model.value_network import (
    _JOIN_CODES,
    ValueNetwork,
    ValueNetworkConfig,
    _grown,
)
from repro.nn.tree_conv import convolve_rows
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode, ScanOperator
from repro.plans.table import PlanTable, PlanView
from repro.search.beam import BeamSearchPlanner
from repro.sql.query import Query
from repro.workloads.benchmark import make_job_benchmark
from tests.test_incremental_scoring import interned, plan_trees, row_budget


# ---------------------------------------------------------------------- #
# The reference: every slot with its full rows
# ---------------------------------------------------------------------- #
class FullRowStore:
    """The store as it kept a slot before it dropped rows nothing reads:
    its layer-0 input row (the encoder row beside the query embedding) and
    its output of every layer, the last one included.  Verbatim but for
    this docstring and ``_STORE_ROWS``, read from the store's module so
    that ``row_budget`` shrinks both stores alike."""

    def __init__(self, network: "ValueNetwork"):
        self._query_encoder = network.featurizer.query_encoder
        self._plan_encoder = network.featurizer.plan_encoder
        self._query_mlp = [
            (layer.weight.value.T.copy(), layer.bias.value.copy())
            for layer in (network.query_fc1, network.query_fc2)
        ]
        self._tree_layers = [
            (layer.stacked_weights(), layer.bias.value.copy())
            for layer in network.tree_layers
        ]
        self._node_dim = self._plan_encoder.node_dimension
        embedding = network.config.query_embedding
        widths = [self._node_dim + embedding, *network.config.tree_channels]
        #: ``_rows[ℓ][slot]``: the slot's node after ℓ layers (0: its input).
        self._rows = [np.zeros((256, width)) for width in widths]
        self._pooled = np.zeros((256, widths[-1]))
        self._embeddings = np.zeros((16, embedding))
        self._clear()

    def _clear(self) -> None:
        """Forget every slot (the arrays keep their size)."""
        #: query fingerprint -> (row of ``_embeddings``, (alias, scan operator) -> slot)
        self._queries: dict[str, tuple[int, dict[tuple, int]]] = {}
        #: ``left slot << 34 | right slot << 2 | operator code`` -> slot (slots
        #: stay below 2³², see ``_STORE_ROWS``)
        self._joins: dict[int, int] = {}
        #: slot -> bit mask of the base tables its subtree covers; its length
        #: is the next free slot.
        self._masks: list[int] = [0]
        #: What a table's remembered slots must carry to be believed.
        self._generation = object()

    def pooled(self, query: Query, plans: Sequence[PlanNode]) -> np.ndarray:
        """The max-pooled vector of every plan of ``query``, ``(len, channels)``."""
        pooled = np.empty((len(plans), self._pooled.shape[1]))
        done = 0
        try:
            while done < len(plans):
                roots = self._extend(query, plans, done)
                pooled[done : done + len(roots)] = self._pooled[roots]
                done += len(roots)
        except BaseException:
            # A walk that stopped half way leaves slots with no rows behind.
            self._clear()
            raise
        return pooled

    def _query(self, query: Query) -> tuple[int, dict[tuple, int]]:
        """``query``'s embedding row and scan slots, embedding it when new."""
        fingerprint = query.fingerprint()
        entry = self._queries.get(fingerprint)
        if entry is None:
            hidden = self._query_encoder.encode(query)
            for weights, bias in self._query_mlp:
                hidden = np.maximum(hidden @ weights + bias, 0.0)
            query_id = len(self._queries)
            if query_id == len(self._embeddings):
                self._embeddings = _grown(self._embeddings, query_id + 1)
            self._embeddings[query_id] = hidden
            entry = self._queries[fingerprint] = (query_id, {})
        return entry

    def _extend(self, query: Query, plans: Sequence[PlanNode], first: int) -> list[int]:
        """Give ``plans[first:]`` slots until the budget is spent; returns their roots'.

        Evicts — everything: no bookkeeping, and no child can go while a
        parent stays — only before the first plan it admits, so no slot is
        lost between being assigned and being read; the caller comes back
        for the plans left over.
        """
        if len(self._masks) > value_network._STORE_ROWS:
            self._clear()
        query_id, scans = self._query(query)
        alias_to_table = query.alias_to_table
        encoder = self._plan_encoder
        masks = self._masks
        joins = self._joins
        #: ``levels[d]``: ``(slot, left, right)`` of the new nodes that sit
        #: ``d`` new nodes above stored ones; a level reads only lower ones.
        levels: list[list[tuple[int, int, int]]] = [[]]
        #: Per new slot, from ``start`` on: its level and its feature row.
        start = len(masks)
        level_of: list[int] = []
        feature_rows: list[int] = []

        def scan_slot(alias: str, operator: ScanOperator) -> int:
            key = (alias, operator)
            slot = scans.get(key)
            if slot is None:
                tables = encoder.table_bit(alias_to_table[alias])
                slot = scans[key] = len(masks)
                masks.append(tables)
                level_of.append(1)
                levels[0].append((slot, 0, 0))
                feature_rows.append(encoder.row_id(operator, tables))
            return slot

        def join_slot(left: int, right: int, operator: JoinOperator) -> int:
            key = left << 34 | right << 2 | _JOIN_CODES[operator]
            slot = joins.get(key)
            if slot is None:
                slot = joins[key] = len(masks)
                tables = masks[left] | masks[right]
                # An input given its slot earlier in this call has no rows
                # yet: its level, not its slot, says when its parents may run.
                level = 0 if left < start else level_of[left - start]
                if right >= start and level_of[right - start] > level:
                    level = level_of[right - start]
                masks.append(tables)
                level_of.append(level + 1)
                if level == len(levels):
                    levels.append([])
                levels[level].append((slot, left, right))
                feature_rows.append(encoder.row_id(operator, tables))
            return slot

        # Both walks visit a plan's inputs left before right and give a node
        # its slot after its inputs': the order recursion would, which fixes
        # slot and level order and so every batch height.
        roots: list[int] = []
        if isinstance(plans, PlanView):
            table = plans.table
            if table.slots_owner is not self._generation:
                table.slots, table.slots_owner = [], self._generation
            slots = table.slots
            slots.extend([0] * (len(table) - len(slots)))
            triples = table.joins
            for root in itertools.islice(plans.ids, first, None):
                # An id stays on the stack until both its inputs have slots.
                pending = [] if slots[root] else [root]
                while pending:
                    plan = pending[-1]
                    triple = triples[plan]
                    if triple is None:
                        node = table.node(plan)
                        slots[plan] = scan_slot(node.alias, node.operator)
                    else:
                        left, right, operator = triple
                        if not slots[left]:
                            pending.append(left)
                            continue
                        if not slots[right]:
                            pending.append(right)
                            continue
                        slots[plan] = join_slot(slots[left], slots[right], operator)
                    pending.pop()
                roots.append(slots[root])
                if len(masks) > value_network._STORE_ROWS:
                    break
        else:
            for index in range(first, len(plans)):
                # Postfix: a join pushes its operator under its inputs, and
                # meeting the operator joins the last two slots in ``done``.
                pending = [plans[index]]
                done: list[int] = []
                while pending:
                    item = pending.pop()
                    if isinstance(item, JoinOperator):
                        right = done.pop()
                        done.append(join_slot(done.pop(), right, item))
                    elif isinstance(item, JoinNode):
                        pending += (item.operator, item.right, item.left)
                    elif isinstance(item, ScanNode):
                        done.append(scan_slot(item.alias, item.operator))
                    else:
                        raise TypeError(f"unknown plan node type {type(item)!r}")
                roots.append(done[0])
                if len(masks) > value_network._STORE_ROWS:
                    break

        if feature_rows:
            stop = len(masks)
            if stop > len(self._pooled):
                self._rows = [_grown(rows, stop) for rows in self._rows]
                self._pooled = _grown(self._pooled, stop)
            inputs = self._rows[0]
            inputs[start:stop, : self._node_dim] = encoder.rows(feature_rows)
            inputs[start:stop, self._node_dim :] = self._embeddings[query_id]
            for level in levels:
                self._convolve(np.array(level, dtype=np.intp))
        return roots

    def _convolve(self, nodes: np.ndarray) -> None:
        """Fill the slots ``nodes[:, 0]`` from their children's, ``nodes[:, 1:]``."""
        own = nodes[:, 0]
        if own[-1] - own[0] == len(own) - 1:
            # One level's slots ascend, so these are a run: write by slice.
            own = slice(own[0], own[-1] + 1)
        for index, (weights, bias) in enumerate(self._tree_layers):
            _, hidden = convolve_rows(self._rows[index], nodes, weights, bias)
            self._rows[index + 1][own] = np.maximum(hidden, 0.0, out=hidden)
        pooled = np.maximum(self._rows[-1][own], self._pooled[nodes[:, 1]])
        np.maximum(pooled, self._pooled[nodes[:, 2]], out=pooled)
        self._pooled[own] = pooled


class FullRowNetwork(ValueNetwork):
    """A value network whose ``predict`` runs on a :class:`FullRowStore`."""

    def predict(self, query: Query, plans: Sequence[PlanNode]) -> np.ndarray:
        if self._store is None:
            self._store = FullRowStore(self)
        return super().predict(query, plans)


#: Three layers (two of them inner), and one (no inner layer at all).
WIDTHS = [(16, 12, 8), (8,)]


def config(widths: tuple[int, ...], seed: int) -> ValueNetworkConfig:
    return ValueNetworkConfig(
        query_hidden=16, query_embedding=8, tree_channels=widths, head_hidden=8, seed=seed
    )


@pytest.fixture(scope="module")
def bench():
    return make_job_benchmark(seed=0)


@pytest.fixture(scope="module")
def queries(bench):
    """The first query of 4, 5, ... 11 relations."""
    first: dict[int, object] = {}
    for query in bench.all_queries():
        first.setdefault(len(query.aliases), query)
    return list(first.values())


class Side:
    """One store layout: two networks, and per query a plan table both score."""

    def __init__(self, network_type, bench, widths, queries):
        self.networks = [network_type(bench.featurizer, config(widths, seed)) for seed in (0, 5)]
        self.tables = {query.name: (PlanTable(query), {}) for query in queries}

    def view(self, query, plans: list[PlanNode]) -> PlanView:
        table, ids = self.tables[query.name]
        return table.view([interned(table, plan, ids) for plan in plans])


# ---------------------------------------------------------------------- #
# Lean against full rows
# ---------------------------------------------------------------------- #
class TestSameBitsAsFullRows:
    @pytest.mark.parametrize("widths", WIDTHS, ids=["three-layers", "one-layer"])
    @pytest.mark.parametrize("rows", [3, 25, 32_768])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_generated_call_sequences(self, bench, queries, widths, rows, data):
        """Each step scores one batch on a lean network and on its full-row
        twin and asserts the same bits; what a step is, is drawn."""
        chosen = data.draw(
            st.lists(st.sampled_from(queries), min_size=2, max_size=2, unique_by=id)
        )
        lean = Side(ValueNetwork, bench, widths, chosen)
        full = Side(FullRowNetwork, bench, widths, chosen)
        earlier: dict[str, list[PlanNode]] = {query.name: [] for query in chosen}
        shuffle = data.draw(st.randoms(use_true_random=False)).shuffle
        with row_budget(rows):
            for _ in range(data.draw(st.integers(2, 7))):
                query = data.draw(st.sampled_from(chosen))
                which = data.draw(st.sampled_from([0, 1]))
                step = data.draw(st.sampled_from(["view", "repeat", "again", "trees", "bump"]))
                if step == "bump":
                    lean.networks[which].bump_version()
                    full.networks[which].bump_version()
                    continue
                before = earlier[query.name]
                if step == "again" and before:
                    plans = before[: data.draw(st.integers(1, len(before)))]
                else:
                    plans = data.draw(st.lists(plan_trees(query), min_size=1, max_size=4))
                    # Beam-search children: joins over plans scored before.
                    for left, right in zip(before[::2], before[1::2]):
                        if not left.leaf_aliases & right.leaf_aliases:
                            operator = data.draw(st.sampled_from(list(JoinOperator)))
                            plans.append(JoinNode(left, right, operator))
                if step == "repeat":
                    plans = plans + plans + [sub for plan in plans for sub in plan.iter_subplans()]
                    shuffle(plans)
                if step == "trees":
                    got = lean.networks[which].predict(query, plans)
                    want = full.networks[which].predict(query, plans)
                else:
                    got = lean.networks[which].predict(query, lean.view(query, plans))
                    want = full.networks[which].predict(query, full.view(query, plans))
                assert np.array_equal(got, want)
                earlier[query.name] = plans + before

    def test_searches_of_the_cycle_queries(self, bench, queries):
        """Fig. 14's default network, searched cold and then warm."""
        lean = ValueNetwork(bench.featurizer, ValueNetworkConfig(seed=0))
        full = FullRowNetwork(bench.featurizer, ValueNetworkConfig(seed=0))
        planner = BeamSearchPlanner(beam_size=10, top_k=5)
        for query in queries + queries:
            got = planner.search(query, lean)
            want = planner.search(query, full)
            assert [plan.fingerprint() for plan in got.plans] == [
                plan.fingerprint() for plan in want.plans
            ]
            assert got.predicted_latencies == want.predicted_latencies
            assert got.plans_scored == want.plans_scored


# ---------------------------------------------------------------------- #
# Rows only for inputs: a root that becomes an input is materialised
# ---------------------------------------------------------------------- #
def input_slots(store) -> set[int]:
    """Every slot a stored join reads as an input, the sentinel aside."""
    inputs = {key >> shift & 0xFFFF_FFFF for key in store._joins for shift in (34, 2)}
    inputs.discard(0)
    return inputs


def row_holders(store) -> set[int]:
    """The slots that hold inner-layer rows."""
    return set(np.flatnonzero(store._row_of[: len(store._masks)]).tolist())


def assert_rows_for_inputs(store) -> None:
    """Every input holds rows, each slot its own, all of them below the top."""
    held = store._row_of[: len(store._masks)]
    held = held[held != 0]
    assert len(np.unique(held)) == len(held) == store._top - 1
    assert held.max(initial=0) < store._top
    if store._rows:
        assert input_slots(store) <= row_holders(store)


@contextlib.contextmanager
def products():
    """Every product the stores run, as ``(nodes, kept, first pooled)``."""
    seen: list[tuple[np.ndarray, int, int]] = []
    convolve = value_network._ActivationStore._convolve

    def spy(store, nodes, kept, first):
        seen.append((nodes.copy(), kept, first))
        return convolve(store, nodes, kept, first)

    value_network._ActivationStore._convolve = spy
    try:
        yield seen
    finally:
        value_network._ActivationStore._convolve = convolve


def assert_products_keep_their_bits(seen) -> None:
    """A one-row product (BLAS's matrix-vector path) is only ever a new
    slot's own level, which keeps its rows; a product that materialises
    stored slots beside new ones holds two new rows at least."""
    for nodes, kept, first in seen:
        if len(nodes) == 1:
            assert first == 0 and kept == 1
        if 0 < first < len(nodes):
            assert len(nodes) - first >= 2


def slot_of(store, query, plan: PlanNode) -> int:
    if isinstance(plan, ScanNode):
        return store._queries[query.fingerprint()][1][(plan.alias, plan.operator)]
    left, right = slot_of(store, query, plan.left), slot_of(store, query, plan.right)
    return store._joins[left << 34 | right << 2 | _JOIN_CODES[plan.operator]]


def first_scan(query, index: int = 0) -> ScanNode:
    alias = query.aliases[index]
    return ScanNode(alias, query.alias_to_table[alias])


ROUTES = ["same call", "later call", "other table", "eviction", "bump"]


class Twins:
    """A lean network and its full-row twin, scoring the same calls."""

    def __init__(self, bench, widths, query):
        self.query = query
        self.networks = [
            network_type(bench.featurizer, config(widths, 0))
            for network_type in (ValueNetwork, FullRowNetwork)
        ]
        self.tables = [(PlanTable(query), {}) for _ in self.networks]

    def score(self, plans: list[PlanNode], how: str = "view") -> np.ndarray:
        """``plans`` on both, as a view of each one's table or as trees."""
        answers = []
        for network, (table, ids) in zip(self.networks, self.tables):
            if how == "view":
                scored = table.view([interned(table, plan, ids) for plan in plans])
            elif how == "other table":
                other = PlanTable(self.query)
                scored = other.view([interned(other, plan, {}) for plan in plans])
            else:
                scored = plans
            answers.append(network.predict(self.query, scored))
        got, want = answers
        assert np.array_equal(got, want)
        assert_rows_for_inputs(self.lean)
        return got

    @property
    def lean(self):
        return self.networks[0]._store

    def bump(self) -> None:
        for network in self.networks:
            network.bump_version()


class TestRootsBecomeInputs:
    @pytest.mark.parametrize("route", ROUTES)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_generated(self, bench, queries, route, data):
        """Inputs of some joins of a drawn plan are scored as roots, then
        joins over them are scored: in the call that scores the roots, in a
        later one, through another table, after an eviction in the middle
        of a call, or after a version bump."""
        query = data.draw(st.sampled_from(queries))
        whole = data.draw(plan_trees(query, complete=True))
        joins = [plan for plan in whole.iter_subplans() if isinstance(plan, JoinNode)]
        picked = data.draw(st.lists(st.sampled_from(joins), min_size=1, max_size=3, unique_by=id))
        roots = [side for join in picked for side in (join.left, join.right)]
        parents = [
            JoinNode(join.left, join.right, operator)
            for join in picked
            for operator in data.draw(st.lists(st.sampled_from(list(JoinOperator)), min_size=1))
        ]
        shuffle = data.draw(st.randoms(use_true_random=False)).shuffle
        twins = Twins(bench, WIDTHS[0], query)
        budget = data.draw(st.integers(3, 40)) if route == "eviction" else value_network._STORE_ROWS
        with products() as seen, row_budget(budget):
            if route == "same call":
                batch = roots + parents
                shuffle(batch)
                twins.score(batch)
            elif route == "eviction":
                # Filler first, so that the budget runs out part way through.
                filler = data.draw(st.lists(plan_trees(query), min_size=1, max_size=4))
                twins.score(filler + roots)
                twins.score(parents + roots)
            else:
                if route == "bump":
                    twins.score(parents)
                    twins.bump()
                twins.score(roots)
                twins.score(parents, "other table" if route == "other table" else "view")
            # The roots again: what they pooled before stands.
            twins.score(roots, "trees")
        assert_products_keep_their_bits(seen)

    def test_a_materialised_slot_is_never_pooled_again(self, bench, queries):
        """Its stored pooled vector stays authoritative: lowered in both
        stores before its parents are scored (below zero, so no parent's
        max reads it), it must come back lowered."""
        query = queries[0]
        a, b, c = (first_scan(query, index) for index in range(3))
        twins = Twins(bench, WIDTHS[0], query)
        twins.score([a, b, c])
        slot = slot_of(twins.lean, query, a)
        assert twins.lean._row_of[slot] == 0  # scored as a root: no rows
        for network in twins.networks:
            network._store._pooled[slot] -= 1.0
        twins.score([JoinNode(a, b, operator) for operator in JoinOperator])
        assert twins.lean._row_of[slot] != 0  # materialised
        twins.score([a])

    def test_a_slot_born_alone_keeps_its_rows(self, bench, queries):
        """A one-row product may round otherwise than a wider one, so the
        slot it makes is never recomputed: it holds its rows from birth."""
        query = queries[0]
        a, b = first_scan(query, 0), first_scan(query, 1)
        twins = Twins(bench, WIDTHS[0], query)
        with products() as seen:
            twins.score([a])
            assert row_holders(twins.lean) == {slot_of(twins.lean, query, a)}
            twins.score([b])
            twins.score([JoinNode(a, b, JoinOperator.HASH_JOIN)])
        assert all(first == 0 for _, _, first in seen)  # nothing materialised
        assert_products_keep_their_bits(seen)

    @pytest.mark.parametrize("lacking", [1, 2])
    def test_materialised_into_a_one_row_call(self, bench, queries, lacking):
        """A join scored alone over roots without rows: the call's own
        level stays a one-row product, and the roots get a product of their
        own, of two rows even when there is one root to recompute."""
        query = queries[0]
        a, b, c, d = (first_scan(query, index) for index in range(4))
        twins = Twins(bench, WIDTHS[0], query)
        with products() as seen:
            twins.score([a, c])
            if lacking == 2:
                twins.score([b, d])
            else:
                twins.score([b])
            for network in twins.networks:
                network._store._pooled[slot_of(network._store, query, a)] -= 1.0
            twins.score([JoinNode(a, b, JoinOperator.MERGE_JOIN)])
            twins.score([a])
        own = [(nodes, kept, first) for nodes, kept, first in seen if first == len(nodes)]
        assert [(len(nodes), kept) for nodes, kept, _ in own] == [(2, lacking)]
        assert_products_keep_their_bits(seen)


# ---------------------------------------------------------------------- #
# The footprint
# ---------------------------------------------------------------------- #
def bytes_per_slot(store) -> int:
    """Bytes one slot takes across every array the store sizes by its slots
    (not the row tables, which it sizes by the slots that hold rows)."""
    arrays = []
    for name, value in vars(store).items():
        if name != "_rows":
            arrays += value if isinstance(value, list) else [value]
    capacity = len(store._pooled)
    return sum(
        array.itemsize * int(np.prod(array.shape[1:]))
        for array in arrays
        if isinstance(array, np.ndarray) and len(array) == capacity
    )


class TestFootprint:
    @pytest.mark.parametrize(
        "widths, want", [((64, 64, 32), 280), ((16, 12, 8), 88), ((8,), 88)]
    )
    def test_bytes_per_slot(self, bench, queries, widths, want):
        """The pooled vector (as wide as the last layer) and three ids:
        ``8 × tree_channels[-1] + 24``, also after the arrays grew; 280 at
        the default widths."""
        network = ValueNetwork(bench.featurizer, ValueNetworkConfig(tree_channels=widths))
        query = queries[-1]
        network.predict(query, [first_scan(query)])
        assert bytes_per_slot(network._store) == want
        for query in queries[::-1]:
            BeamSearchPlanner(20, 10).search(query, network)
        assert len(network._store._pooled) > 256  # the arrays grew
        assert bytes_per_slot(network._store) == want

    def test_rows_only_for_inputs(self, bench, queries):
        """After cold searches of the cycle queries, the slots that hold
        rows are exactly the inputs of stored joins and the slots born in
        a one-row product: 320 of 7,032 slots."""
        network = ValueNetwork(bench.featurizer, ValueNetworkConfig(seed=0))
        with products() as seen:
            for query in queries:
                BeamSearchPlanner(20, 10).search(query, network)
        store = network._store
        born_alone = {int(nodes[0, 0]) for nodes, _, _ in seen if len(nodes) == 1}
        assert row_holders(store) == input_slots(store) | born_alone
        assert_rows_for_inputs(store)
        assert_products_keep_their_bits(seen)
        assert (len(store._masks) - 1, store._top - 1) == (7_032, 320)

    def test_the_sentinel_reads_zero_after_the_embeddings_grow(self, bench):
        """Twenty queries outgrow the first 16 embedding rows; row 0 and
        slot 0 — the absent child of every scan — still read zero, and
        every answer is still the full-row store's."""
        lean = ValueNetwork(bench.featurizer, config(WIDTHS[0], 0))
        full = FullRowNetwork(bench.featurizer, config(WIDTHS[0], 0))
        chosen = list({query.fingerprint(): query for query in bench.all_queries()}.values())[:20]
        for query in chosen:
            scans = [ScanNode(alias, query.alias_to_table[alias]) for alias in query.aliases]
            plans = scans + [JoinNode(scans[0], scans[1], JoinOperator.HASH_JOIN)]
            assert np.array_equal(lean.predict(query, plans), full.predict(query, plans))
        store = lean._store
        assert len(store._queries) == 20 and len(store._embeddings) > 16
        assert not store._embeddings[0].any()
        assert store._feature_of[0] == store._query_of[0] == store._row_of[0] == 0
        assert not store._pooled[0].any()
        assert not any(rows[0].any() for rows in store._rows)
        assert not bench.featurizer.plan_encoder.rows([0]).any()
