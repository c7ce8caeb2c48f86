"""The activation store keeps what a parent reads, and answers bit for bit.

``_ActivationStore`` keeps per slot its output of every inner tree-conv
layer, its pooled vector and two ids: its interned feature row and its
query's embedding row.  Layer 0's input is gathered from those ids and the
last layer's output never leaves the call that pools it.  ``FullRowStore``
below is the layout the store had before: a slot also kept its layer-0 input
row and its last-layer row.  Both stores run the same arithmetic on the same
values in the same layout, so every ``predict`` must be *equal* — not close
— to the full-row store's, over generated call sequences: cold and warm
views of two queries' plan tables and plain trees, subplans repeated within
one call, a row budget small enough to evict mid-call, version bumps, and a
second network scoring the same tables.  Then the footprint: bytes per slot,
and the zero rows the absent child of a scan reads.
"""

from __future__ import annotations

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
# The footprint
# ---------------------------------------------------------------------- #
def first_scan(query) -> ScanNode:
    alias = query.aliases[0]
    return ScanNode(alias, query.alias_to_table[alias])


def bytes_per_slot(store) -> int:
    """Bytes one slot takes across every array the store sizes by its slots."""
    arrays = []
    for value in vars(store).values():
        arrays += value if isinstance(value, list) else [value]
    capacity = len(store._pooled)
    return sum(
        array.itemsize * int(np.prod(array.shape[1:]))
        for array in arrays
        if isinstance(array, np.ndarray) and len(array) == capacity
    )


class TestFootprint:
    @pytest.mark.parametrize(
        "widths, want", [((64, 64, 32), 1_296), ((16, 12, 8), 304), ((8,), 80)]
    )
    def test_bytes_per_slot(self, bench, queries, widths, want):
        """Inner layers, the pooled vector (as wide as the last layer) and
        two ids: ``8 × sum(tree_channels) + 16``, also after the arrays grew;
        1,296 at the default widths."""
        network = ValueNetwork(bench.featurizer, ValueNetworkConfig(tree_channels=widths))
        query = queries[-1]
        network.predict(query, [first_scan(query)])
        assert bytes_per_slot(network._store) == want
        for query in queries[::-1]:
            BeamSearchPlanner(20, 10).search(query, network)
        assert len(network._store._pooled) > 256  # the arrays grew
        assert bytes_per_slot(network._store) == want

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
        assert store._feature_of[0] == store._query_of[0] == 0
        assert not store._pooled[0].any()
        assert not any(rows[0].any() for rows in store._rows)
        assert not bench.featurizer.plan_encoder.rows([0]).any()
