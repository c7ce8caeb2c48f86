"""The tree-convolution value network :math:`V_\\theta(query, plan)`.

Architecture (paper §7, "Value network details", scaled for CPU training):

1. a small MLP embeds the query's [table → selectivity] vector;
2. the query embedding is concatenated onto every plan node's feature vector;
3. a stack of tree convolution layers propagates information along the plan
   tree;
4. dynamic max pooling reduces the tree to a fixed-size vector;
5. a small MLP head outputs a single value.

Targets are trained in ``log1p`` space and standardised, which keeps a single
network usable both for simulation costs (up to 1e7) and for real latencies
(fractions of a second) and mirrors how predictions "naturally change from the
scales of costs to latencies through fine-tuning" (paper footnote 5).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.featurization.featurizer import (
    FeaturizedExample,
    QueryPlanFeaturizer,
    SignatureFeaturizer,
    canonical_signature,
)
from repro.nn.layers import Linear, Parameter, ReLU
from repro.nn.tree_conv import DynamicMaxPool, TreeBatch, TreeConvLayer, convolve_rows
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode, ScanOperator
from repro.plans.table import PlanView
from repro.sql.query import Query
from repro.utils.rng import RngFactory


class StateDictError(RuntimeError):
    """Base class for weight (de)serialisation failures."""


class StateDictMismatchError(StateDictError):
    """A state dict is incompatible with the target network.

    Raised instead of silently mis-loading when the serialized weights were
    produced by a different architecture (missing/unexpected/mis-shaped
    parameters) or against a different featurisation (schema or encoder
    dimensionalities changed).
    """


@dataclass
class ValueNetworkConfig:
    """Hyper-parameters of the value network.

    Attributes:
        query_hidden: Width of the query MLP's hidden layer.
        query_embedding: Width of the query embedding concatenated to nodes.
        tree_channels: Output channels of each tree convolution layer.
        head_hidden: Width of the output MLP's hidden layer.
        seed: Seed controlling weight initialisation.
    """

    query_hidden: int = 64
    query_embedding: int = 32
    tree_channels: tuple[int, ...] = (64, 64, 32)
    head_hidden: int = 32
    seed: int = 0


def _config_from_state(state: dict) -> "ValueNetworkConfig | None":
    """Reconstruct the architecture config a state dict was captured with.

    ``tree_channels`` survives JSON/npz round trips as a list; the config
    dataclass expects a tuple.  Returns ``None`` (caller defaults) when the
    state dict predates config capture.
    """
    config = state.get("config")
    if config is None:
        return None
    config = dict(config)
    if "tree_channels" in config:
        config["tree_channels"] = tuple(config["tree_channels"])
    return ValueNetworkConfig(**config)


#: Rows an activation store may hold, one per distinct (query, subplan) it has
#: scored.  A constant, not a parameter: at the default widths a row is about
#: 1.3 KB, so a full store is about 42 MB; one beam search (b=20, k=10) of an
#: 11-relation query fills about 2,000 rows.
_STORE_ROWS = 32_768

#: Two bits per join operator in the store's join keys (``_ActivationStore._joins``).
_JOIN_CODES = {operator: code for code, operator in enumerate(JoinOperator)}


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """A zero-extended copy of ``array``, at least doubled, holding ``rows``."""
    grown = np.zeros((max(rows, 2 * len(array)), *array.shape[1:]), dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class _ActivationStore:
    """What one version of a network has computed for every subplan it scored.

    A :class:`TreeConvLayer` makes a node's layer-ℓ output a function of the
    node's own layer-(ℓ−1) row and its two children's, and the max pool of a
    tree is the max of its root's last-layer row and its children's pools.
    So each scored subplan keeps one *slot*, and a slot keeps only what a
    later call reads: its output of every inner layer (read when it is a
    parent's child), its pooled vector, and two ints — its interned feature
    row (:meth:`PlanEncoder.row_id`) and its query's row of ``_embeddings``.
    Layer 0's input is not kept: a node's is one encoder row beside one
    embedding row, so a parent gathers ``[x | x_left | x_right]`` by those
    ids, the same values in the same layout a kept row would give.  The last
    layer's output is not kept either: only the slot's own pooled vector
    reads it, in the call that computes both.  Scoring a plan walks down
    only until it meets slots, and a join over two scored inputs — every
    beam-search child — costs one row per layer instead of its whole tree
    (the child-to-parent reuse of Neo).

    A slot is found by structure, not by a rendered identity: a scan by
    ``(alias, operator)`` within its query (queries by ``fingerprint()``,
    never by name), a join by ``(left slot, right slot, operator)`` — slots
    belong to one query, so that key needs no query in it.  Plans arrive as
    trees or as a :class:`~repro.plans.table.PlanView`; both walks end in the
    same ``scan_slot`` / ``join_slot``, so a subplan scored through one is a
    hit for the other.  For a view the store also remembers, on the view's
    table, the slot of every id it has resolved, and an id whose two inputs
    hold slots resolves in place — a beam child costs three list reads and
    one dictionary probe, with no stack; only an id with an input still
    without a slot (a scan variant's first use, an input :meth:`_clear`
    dropped) is walked down.  Those remembered slots are valid
    for one *generation* — until :meth:`_clear` — and a table that carries
    another generation's (this store was evicted, the network's version was
    bumped, another network scored the table in between) starts again from
    its triples alone.

    Slots hold pre-head state of one set of tree and query-MLP weights
    (copied here): the owning network drops the store in ``bump_version``
    and applies its head and label transform, live, to the pooled vectors.
    Slot 0 is the absent child of a scan, zero at every layer: its ids name
    the encoder's zero sentinel row and ``_embeddings`` row 0, which no query
    is given.  Not thread-safe; the network serialises callers.

    Nothing a call builds may need the cycle collector to be freed — it
    would keep the call's level lists and the search's ``PlanTable`` alive
    until the next collection — so the walks below keep their pending
    nodes on explicit stacks rather than recursing through a closure that
    refers to itself.  And the join dict, the store's largest, holds only
    ints (a key packs both slots and the operator), so the collector does
    not track it.
    """

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
        *inner, last = network.config.tree_channels
        #: ``_rows[ℓ][slot]``: the slot's node after ℓ + 1 layers, for every
        #: layer but the last.
        self._rows = [np.zeros((256, width)) for width in inner]
        self._pooled = np.zeros((256, last))
        #: Per slot, its interned feature row and its query's embedding row.
        self._feature_of = np.zeros(256, dtype=np.intp)
        self._query_of = np.zeros(256, dtype=np.intp)
        #: Query embeddings, one row per query from row 1 on; row 0 stays zero.
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
        try:
            roots = self._extend(query, plans, 0)
            if len(roots) == len(plans):
                # One walk admitted the whole call (all but a full store's).
                return self._pooled[roots]
            pooled = np.empty((len(plans), self._pooled.shape[1]))
            done = 0
            while True:
                pooled[done : done + len(roots)] = self._pooled[roots]
                done += len(roots)
                if done == len(plans):
                    return pooled
                roots = self._extend(query, plans, done)
        except BaseException:
            # A walk that stopped half way leaves slots with no rows behind.
            self._clear()
            raise

    def _query(self, query: Query) -> tuple[int, dict[tuple, int]]:
        """``query``'s embedding row and scan slots, embedding it when new."""
        fingerprint = query.fingerprint()
        entry = self._queries.get(fingerprint)
        if entry is None:
            hidden = self._query_encoder.encode(query)
            for weights, bias in self._query_mlp:
                hidden = np.maximum(hidden @ weights + bias, 0.0)
            query_id = len(self._queries) + 1
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
        if len(self._masks) > _STORE_ROWS:
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
                triple = triples[root]
                if slots[root]:
                    pending = []
                elif triple is not None and slots[triple[0]] and slots[triple[1]]:
                    # Both inputs hold slots (every beam child's do): resolve
                    # in place, with one probe on a hit.
                    left, right, operator = triple
                    left, right = slots[left], slots[right]
                    slot = joins.get(left << 34 | right << 2 | _JOIN_CODES[operator])
                    slots[root] = join_slot(left, right, operator) if slot is None else slot
                    pending = []
                else:
                    # A scan variant's first use, or an input ``_clear``
                    # dropped: an id stays on the stack until both its
                    # inputs have slots.
                    pending = [root]
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
                if len(masks) > _STORE_ROWS:
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
                if len(masks) > _STORE_ROWS:
                    break

        if feature_rows:
            stop = len(masks)
            if stop > len(self._pooled):
                self._rows = [_grown(rows, stop) for rows in self._rows]
                self._pooled = _grown(self._pooled, stop)
                self._feature_of = _grown(self._feature_of, stop)
                self._query_of = _grown(self._query_of, stop)
            self._feature_of[start:stop] = feature_rows
            self._query_of[start:stop] = query_id
            for level in levels:
                self._convolve(np.array(level, dtype=np.intp))
        return roots

    def _convolve(self, nodes: np.ndarray) -> None:
        """Fill the slots ``nodes[:, 0]`` from their children's, ``nodes[:, 1:]``."""
        own = nodes[:, 0]
        if own[-1] - own[0] == len(own) - 1:
            # One level's slots ascend, so these are a run: write by slice.
            own = slice(own[0], own[-1] + 1)
        # Layer 0 gathers [x | x_left | x_right] by ids, each x an encoder
        # row beside an embedding row: the layout convolve_rows would take.
        flat = nodes.reshape(-1)
        inputs = np.concatenate(
            (
                self._plan_encoder.rows(self._feature_of.take(flat)),
                self._embeddings.take(self._query_of.take(flat), axis=0),
            ),
            axis=1,
        )
        (weights, bias), *inner = self._tree_layers
        hidden = inputs.reshape(len(nodes), -1) @ weights
        hidden += bias
        np.maximum(hidden, 0.0, out=hidden)
        for rows, (weights, bias) in zip(self._rows, inner):
            rows[own] = hidden
            _, hidden = convolve_rows(rows, nodes, weights, bias)
            np.maximum(hidden, 0.0, out=hidden)
        # The last layer's output is read here only, so it is never kept.
        pooled = np.maximum(hidden, self._pooled[nodes[:, 1]])
        np.maximum(pooled, self._pooled[nodes[:, 2]], out=pooled)
        self._pooled[own] = pooled


#: Process-wide source of unique network identifiers (see ``ValueNetwork.uid``).
_NETWORK_UIDS = itertools.count()


class ValueNetwork:
    """The learned value function.

    Args:
        featurizer: Featuriser defining input dimensionalities.
        config: Network hyper-parameters.
    """

    def __init__(
        self,
        featurizer: QueryPlanFeaturizer,
        config: ValueNetworkConfig | None = None,
    ):
        self.featurizer = featurizer
        self.config = config or ValueNetworkConfig()
        rng = RngFactory(self.config.seed)

        query_dim = featurizer.query_dimension
        node_dim = featurizer.plan_node_dimension
        cfg = self.config

        self.query_fc1 = Linear(query_dim, cfg.query_hidden, rng.make("qfc1"), "query_fc1")
        self.query_act1 = ReLU()
        self.query_fc2 = Linear(
            cfg.query_hidden, cfg.query_embedding, rng.make("qfc2"), "query_fc2"
        )
        self.query_act2 = ReLU()

        in_channels = node_dim + cfg.query_embedding
        self.tree_layers: list[TreeConvLayer] = []
        self.tree_activations: list[ReLU] = []
        for i, channels in enumerate(cfg.tree_channels):
            self.tree_layers.append(
                TreeConvLayer(in_channels, channels, rng.make("tree", i), f"tree_conv{i}")
            )
            self.tree_activations.append(ReLU())
            in_channels = channels

        self.pool = DynamicMaxPool()
        self.head_fc1 = Linear(in_channels, cfg.head_hidden, rng.make("hfc1"), "head_fc1")
        self.head_act1 = ReLU()
        self.head_fc2 = Linear(cfg.head_hidden, 1, rng.make("hfc2"), "head_fc2")

        # Target normalisation (fit from training data).
        self.label_mean = 0.0
        self.label_std = 1.0

        # Model identity for cross-query plan caches: ``uid`` distinguishes
        # network instances, ``version`` increments whenever the weights
        # change (checkpoint loads, training runs).
        self.uid = next(_NETWORK_UIDS)
        self.version = 0

        #: The trees of the last training ``forward``, whose segments
        #: ``backward`` sums over (``None`` after an inference one).
        self._forward_trees: TreeBatch | None = None
        # Inference state (see ``predict``).  Its own lock, not a caller's:
        # a service, its in-process fallback, shadow traffic and a test's
        # oracle may all score one network, each under a different lock.
        self._store: _ActivationStore | None = None
        self._store_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Parameters and (de)serialisation
    # ------------------------------------------------------------------ #
    def parameters(self) -> list[Parameter]:
        """All trainable parameters."""
        params: list[Parameter] = []
        params += self.query_fc1.parameters() + self.query_fc2.parameters()
        for layer in self.tree_layers:
            params += layer.parameters()
        params += self.head_fc1.parameters() + self.head_fc2.parameters()
        return params

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def get_state(self) -> dict[str, np.ndarray]:
        """Copy of all weights plus the label normalisation statistics."""
        state = {p.name: p.value.copy() for p in self.parameters()}
        state["__label_mean__"] = np.array([self.label_mean])
        state["__label_std__"] = np.array([self.label_std])
        return state

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        """Load weights produced by :meth:`get_state`.

        Weights are written into the parameters' arrays, not rebound: an
        optimizer over this network (which owns those arrays, see
        :mod:`repro.nn.optim`) keeps training the weights just loaded.
        """
        by_name = {p.name: p for p in self.parameters()}
        labels = ("__label_mean__", "__label_std__")
        loads = [(by_name[name], values) for name, values in state.items() if name not in labels]
        for parameter, values in loads:
            if parameter.value.shape != values.shape:
                raise ValueError(
                    f"shape mismatch for {parameter.name}: "
                    f"{parameter.value.shape} vs {values.shape}"
                )
        for parameter, values in loads:
            parameter.value[...] = values
            parameter.zero_grad()
        if "__label_mean__" in state:
            self.label_mean = float(state["__label_mean__"][0])
        if "__label_std__" in state:
            self.label_std = float(state["__label_std__"][0])
        self.bump_version()

    # ------------------------------------------------------------------ #
    # Explicit checkpoint format (lifecycle snapshots)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """A self-describing checkpoint of this network.

        Unlike the flat :meth:`get_state` mapping, the state dict carries the
        architecture config and the featuriser signature alongside the
        weights, so :meth:`load_state_dict` can verify compatibility instead
        of silently mis-loading.
        """
        from dataclasses import asdict

        return {
            "format": "value-network-v1",
            "weights": {p.name: p.value.copy() for p in self.parameters()},
            "label_mean": self.label_mean,
            "label_std": self.label_std,
            "config": asdict(self.config),
            "featurizer_signature": self.featurizer.signature(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Load a checkpoint produced by :meth:`state_dict`.

        Raises:
            StateDictMismatchError: When the checkpoint's featuriser signature
                differs from this network's, or its weights do not line up
                with this architecture (missing, unexpected or mis-shaped
                parameters).
        """
        if not isinstance(state, dict) or "weights" not in state:
            raise StateDictMismatchError(
                "not a value-network state dict (missing 'weights'); "
                "use set_state() for flat weight mappings"
            )
        recorded = state.get("featurizer_signature")
        current = canonical_signature(self.featurizer.signature())
        # Canonical (deep-tuple) comparison: signatures that crossed a JSON
        # or npz boundary come back with lists where tuples were.
        if recorded is not None and canonical_signature(recorded) != current:
            raise StateDictMismatchError(
                f"featurizer mismatch: checkpoint was trained against "
                f"{canonical_signature(recorded)!r}, this network featurises "
                f"{current!r}"
            )
        weights = state["weights"]
        by_name = {p.name: p for p in self.parameters()}
        missing = sorted(set(by_name) - set(weights))
        unexpected = sorted(set(weights) - set(by_name))
        if missing or unexpected:
            raise StateDictMismatchError(
                f"parameter names do not line up: missing {missing or 'none'}, "
                f"unexpected {unexpected or 'none'}"
            )
        for name, parameter in by_name.items():
            values = np.asarray(weights[name])
            if parameter.value.shape != values.shape:
                raise StateDictMismatchError(
                    f"shape mismatch for {name}: network expects "
                    f"{parameter.value.shape}, checkpoint holds {values.shape}"
                )
        # Written in place, as in ``set_state``.
        for name, parameter in by_name.items():
            parameter.value[...] = weights[name]
            parameter.zero_grad()
        self.label_mean = float(state.get("label_mean", 0.0))
        self.label_std = float(state.get("label_std", 1.0))
        self.bump_version()

    @classmethod
    def from_state_dict(
        cls,
        state: dict,
        featurizer: "QueryPlanFeaturizer | SignatureFeaturizer | None" = None,
    ) -> "ValueNetwork":
        """Materialise a network purely from a :meth:`state_dict` payload.

        This is the stateless restore contract the scoring backends build on:
        when ``featurizer`` is omitted, a
        :class:`~repro.featurization.featurizer.SignatureFeaturizer` is
        derived from the checkpoint's own ``featurizer_signature``, so a
        scorer process can reconstruct the network from the checkpoint alone
        — no schema, estimator or live objects required.  Networks restored
        this way can :meth:`predict_examples` (featurisation happened in the
        submitting worker) but not :meth:`predict` raw plans.

        Raises:
            StateDictMismatchError: The payload is not a self-describing
                state dict, or (with ``featurizer`` given) does not match it.
        """
        if not isinstance(state, dict) or "weights" not in state:
            raise StateDictMismatchError(
                "not a value-network state dict (missing 'weights')"
            )
        if featurizer is None:
            signature = state.get("featurizer_signature")
            if signature is None:
                raise StateDictMismatchError(
                    "state dict carries no featurizer_signature; pass a "
                    "featurizer explicitly to restore it"
                )
            featurizer = SignatureFeaturizer(signature)
        network = cls(featurizer, _config_from_state(state))
        network.load_state_dict(state)
        return network

    def bump_version(self) -> None:
        """Mark the weights as changed.

        Cache layers key plan entries on :meth:`version_key`, and
        :meth:`predict` keeps per-subplan activations of the current weights;
        call this after any in-place weight mutation (the trainer does so
        after every fit) so stale predictions are never served.
        """
        with self._store_lock:
            self.version += 1
            self._store = None

    def version_key(self) -> tuple[int, int]:
        """Identity of this network's current weights, usable as a cache key."""
        return (self.uid, self.version)

    def clone(self) -> "ValueNetwork":
        """A deep copy with identical weights (used for V_sim -> V_real)."""
        copy = ValueNetwork(self.featurizer, self.config)
        copy.set_state(self.get_state())
        return copy

    # ------------------------------------------------------------------ #
    # Label transform
    # ------------------------------------------------------------------ #
    def fit_label_transform(self, labels: np.ndarray) -> None:
        """Fit the log1p + standardisation transform on raw labels."""
        transformed = np.log1p(np.maximum(np.asarray(labels, dtype=np.float64), 0.0))
        self.label_mean = float(transformed.mean())
        self.label_std = float(max(transformed.std(), 1e-6))

    def transform_labels(self, labels: np.ndarray) -> np.ndarray:
        """Raw labels -> network target space."""
        transformed = np.log1p(np.maximum(np.asarray(labels, dtype=np.float64), 0.0))
        return (transformed - self.label_mean) / self.label_std

    def inverse_transform(self, outputs: np.ndarray) -> np.ndarray:
        """Network outputs -> raw label units (latency seconds / cost)."""
        outputs = np.asarray(outputs, dtype=np.float64)
        return np.expm1(np.clip(outputs * self.label_std + self.label_mean, -30.0, 30.0))

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(
        self, queries: np.ndarray, tree_batch: TreeBatch, training: bool = False
    ) -> np.ndarray:
        """Forward pass returning normalised-space predictions ``(batch,)``.

        Only a ``training`` pass can be backpropagated: an inference one
        releases every layer's cache, so :meth:`backward` after it raises
        instead of mixing this batch's activations with another's gradient.
        """
        query_hidden = self.query_act1.forward(
            self.query_fc1.forward(queries, training), training
        )
        query_embed = self.query_act2.forward(
            self.query_fc2.forward(query_hidden, training), training
        )

        # Every node carries its query's embedding; the sentinel stays zero.
        node_dim = tree_batch.feature_dim
        nodes = np.empty((tree_batch.num_rows, node_dim + query_embed.shape[1]), dtype=np.float64)
        nodes[:, :node_dim] = tree_batch.features
        nodes[0, node_dim:] = 0.0
        nodes[1:, node_dim:] = query_embed[tree_batch.segment_ids]

        for layer, activation in zip(self.tree_layers, self.tree_activations):
            nodes = activation.forward(layer.forward(nodes, tree_batch, training), training)

        pooled = self.pool.forward(nodes, tree_batch, training)
        head_hidden = self.head_act1.forward(self.head_fc1.forward(pooled, training), training)
        outputs = self.head_fc2.forward(head_hidden, training)[:, 0]

        if training:
            self._forward_trees = tree_batch
        else:
            # Nothing of an inference pass may be backpropagated, nor pinned.
            self._forward_trees = None
            for layer in self._layers():
                layer.release()
        return outputs

    def _layers(self) -> list:
        """Every layer of :meth:`forward`, each of which caches for backward."""
        return [
            self.query_fc1, self.query_act1, self.query_fc2, self.query_act2,
            *self.tree_layers, *self.tree_activations,
            self.pool, self.head_fc1, self.head_act1, self.head_fc2,
        ]

    def backward(self, grad_outputs: np.ndarray) -> None:
        """Backward pass from d(loss)/d(outputs); accumulates parameter grads.

        Only gradients something reads are computed: of the first tree
        layer's inputs, the query-embedding columns (the plan features are
        constants), and of the query MLP's, none (the query encoding is one).

        Raises:
            RuntimeError: The last :meth:`forward` was not a training one.
        """
        trees = self._forward_trees
        if trees is None:
            raise RuntimeError("backward called before forward")
        grad = self.head_fc2.backward(grad_outputs[:, None])
        grad = self.head_fc1.backward(self.head_act1.backward(grad))
        grad_nodes = self.pool.backward(grad)

        embedding = slice(trees.feature_dim, None)
        for index in reversed(range(len(self.tree_layers))):
            grad_nodes = self.tree_layers[index].backward(
                self.tree_activations[index].backward(grad_nodes),
                columns=embedding if index == 0 else None,
            )

        grad_query_embed = np.add.reduceat(grad_nodes, trees.starts, axis=0)
        grad_query_hidden = self.query_fc2.backward(
            self.query_act2.backward(grad_query_embed)
        )
        self.query_fc1.backward(self.query_act1.backward(grad_query_hidden), input_grad=False)

    # ------------------------------------------------------------------ #
    # Prediction API
    # ------------------------------------------------------------------ #
    def predict_examples(self, examples: list[FeaturizedExample]) -> np.ndarray:
        """Predict raw-unit values for featurised examples."""
        queries, tree_batch = self.featurizer.batch(examples)
        outputs = self.forward(queries, tree_batch, training=False)
        return self.inverse_transform(outputs)

    def predict(self, query: Query, plans: Sequence[PlanNode]) -> np.ndarray:
        """Predict raw-unit values for several candidate plans of one query.

        The single inference entrance: beam search, the in-process scoring
        backend and direct callers all come through here.

        Incremental: the network keeps, for every subplan it has scored, the
        subplan's row at each inner tree-convolution layer, its max-pooled
        vector and the ids its layer-0 input is gathered from, found again
        by structure — the query by its ``fingerprint()``, a scan by
        ``(alias, operator)``, a join by its inputs' kept slots and its
        operator.  A plan is convolved only down to the subplans already
        kept, so a join of two scored inputs — every beam-search child —
        costs one row per layer, whatever the size of its tree.  ``plans`` may be a :class:`~repro.plans.table.PlanView`:
        its joins are then read as ``(left, right, operator)`` triples and
        no plan node is built or walked.

        - *Lifetime*: one :attr:`version`; :meth:`bump_version` drops it all.
          What is kept is pre-head and pre-label-transform, so
          :meth:`fit_label_transform` or an edit of the head shows at once.
        - *Bound*: ``_STORE_ROWS`` subplans plus at most one plan's nodes,
          at ``8 × sum(tree_channels) + 16`` bytes each (1,296 at the
          default widths, so ~42 MB full); a call that finds the store full
          drops everything first, and subplans are recomputed as plans ask
          for them.
        - *Tolerance*: float64 throughout; equals
          ``predict_examples([featurize(query, plan) ...])`` within
          ``rtol=1e-12`` (the sums run in another order), not bit for bit.
        - *Cost*: a call the store admits whole — every beam-search batch
          — returns the stored pooled rows in one gather, and the head and
          :meth:`inverse_transform` run in place on the arrays they make,
          the same operations in the same order (so the same bits) as
          out-of-place code.

        Thread-safe (the kept state has its own lock, and concurrent callers
        take turns on it); :meth:`forward` and :meth:`predict_examples` are
        not.

        Raises:
            TypeError: The network was restored from a checkpoint alone
                (:class:`SignatureFeaturizer`) and cannot featurise plans.
        """
        if not len(plans):
            return np.zeros(0, dtype=np.float64)
        with self._store_lock:
            if self._store is None:
                if not hasattr(self.featurizer, "plan_encoder"):
                    raise TypeError(
                        f"{type(self.featurizer).__name__} cannot featurize raw "
                        "plans: score shipped examples with predict_examples()"
                    )
                self._store = _ActivationStore(self)
            pooled = self._store.pooled(query, plans)
        # The head and :meth:`inverse_transform`, the same operations in the
        # same order, each in place on the array the one before made.
        head, out = self.head_fc1, self.head_fc2
        hidden = pooled @ head.weight.value.T
        hidden += head.bias.value
        np.maximum(hidden, 0.0, out=hidden)
        outputs = hidden @ out.weight.value[0]
        outputs += out.bias.value[0]
        outputs *= self.label_std
        outputs += self.label_mean
        np.maximum(outputs, -30.0, out=outputs)
        np.minimum(outputs, 30.0, out=outputs)
        return np.expm1(outputs, out=outputs)

    def predict_one(self, query: Query, plan: PlanNode) -> float:
        """Predict the raw-unit value of a single (query, plan) pair."""
        return float(self.predict(query, [plan])[0])
