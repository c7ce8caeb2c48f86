"""A fit pays for its gradient steps, not for re-gathering — and learns the same, bit for bit.

``ValueNetworkTrainer.fit`` lays out the tree structure of every minibatch of
an epoch in one pass after the shuffle (``TreeBatch.minibatches``), takes the
validation minibatches once per fit, and simulation collection restricts each
DP alias set's query once.  None of that may change what is learned or
collected, so the code as it ran before is kept here as the reference:

- every minibatch of the layout is array-equal to ``trees.take(chunk)``;
- ``fit`` moves the weights exactly as the per-step ``take`` loop with a
  per-epoch evaluation did, after every step, and keeps the same
  :class:`TrainingHistory`;
- collection yields the same points in the same order as restricting the
  query once per DP candidate, with one ``Query`` object per alias set.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.model.trainer as trainer_module
from repro.costmodel.cout import CoutCostModel
from repro.featurization.featurizer import FeaturizedExample
from repro.featurization.plan_encoder import FlattenedPlan
from repro.model.trainer import GRADIENT_CLIP, TrainingHistory, ValueNetworkTrainer
from repro.model.value_network import ValueNetwork
from repro.nn.early_stopping import EarlyStopping
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.optimizer.dp import DynamicProgrammingOptimizer
from repro.simulation.augment import augment_data_point
from repro.simulation.collect import collect_simulation_data
from repro.utils.rng import new_rng
from tests.test_training_step import FEATURIZER, NODE_DIM, QUERY_DIM, SMALL, example_lists

LAID_OUT = ("features", "left", "right", "starts", "counts", "nodes", "segment_ids")


def assert_same_batch(batch, reference, what: str) -> None:
    for name in LAID_OUT:
        assert np.array_equal(getattr(batch, name), getattr(reference, name)), (what, name)
    for mine, theirs in zip(batch.parents, reference.parents):
        assert np.array_equal(mine, theirs), (what, "parents")


def seeded_examples(count: int, seed: int) -> list[FeaturizedExample]:
    """``count`` random plan trees of 1–9 nodes over three query encodings."""
    rng = np.random.default_rng(seed)
    encodings = rng.uniform(size=(3, QUERY_DIM))
    examples = []
    for _ in range(count):
        nodes = int(rng.integers(1, 10))
        left, right = [0], [0]
        # Grown in preorder: (subtree size, parent row, 1 = left / 2 = right).
        pending = [(nodes, 0, 0)]
        while pending:
            size, parent, side = pending.pop()
            row = len(left)
            left.append(0)
            right.append(0)
            if side:
                (left if side == 1 else right)[parent] = row
            below = int(rng.integers(0, size))
            if size - 1 - below:
                pending.append((size - 1 - below, row, 2))
            if below:
                pending.append((below, row, 1))
        features = rng.normal(size=(nodes + 1, NODE_DIM))
        features[0] = 0.0
        plan = FlattenedPlan(features, np.array(left), np.array(right), nodes)
        examples.append(FeaturizedExample(encodings[rng.integers(0, 3)], plan))
    return examples


# ---------------------------------------------------------------------- #
# The layout: every minibatch is its take
# ---------------------------------------------------------------------- #
@settings(max_examples=80, deadline=None)
@given(examples=example_lists(min_size=1, max_size=30), data=st.data())
def test_every_minibatch_is_its_take(examples, data):
    _, trees = FEATURIZER.batch(examples)
    order = np.array(data.draw(st.permutations(range(len(examples)))), dtype=np.intp)
    batch_size = data.draw(
        st.sampled_from([1, 3, 128]) | st.integers(len(examples), len(examples) + 3)
    )
    chunks = [order[start : start + batch_size] for start in range(0, len(order), batch_size)]
    batches = list(trees.minibatches(order, batch_size))
    assert len(batches) == len(chunks)
    for index, (batch, chunk) in enumerate(zip(batches, chunks)):
        assert_same_batch(batch, trees.take(chunk), f"minibatch {index} of {len(chunks)}")


def test_an_empty_order_has_no_minibatches():
    _, trees = FEATURIZER.batch(seeded_examples(2, seed=0))
    assert list(trees.minibatches(np.arange(0), 4)) == []


# ---------------------------------------------------------------------- #
# The reference: fit as it ran before
# ---------------------------------------------------------------------- #
def reference_fit(trainer: ValueNetworkTrainer, examples, labels) -> TrainingHistory:
    """``ValueNetworkTrainer.fit`` before the epoch layout: a ``take`` per
    step and per validation minibatch, the validation set re-taken every
    epoch (label transform refit, no epoch override)."""
    network = trainer.network
    labels_array = np.asarray(labels, dtype=np.float64)
    network.fit_label_transform(labels_array)
    targets = network.transform_labels(labels_array)
    rng = new_rng(trainer.seed)
    order = rng.permutation(len(examples))
    num_validation = (
        int(len(examples) * trainer.validation_fraction)
        if len(examples) >= 20 and trainer.validation_fraction > 0
        else 0
    )
    validation_idx = order[:num_validation]
    train_idx = order[num_validation:]
    queries, trees = network.featurizer.batch(examples)
    optimizer = trainer_module.Adam(network.parameters(), learning_rate=trainer.learning_rate)
    stopper = EarlyStopping(patience=trainer.patience)
    history = TrainingHistory()
    best_state = None
    best_loss = float("inf")

    def evaluate(indices) -> float:
        total = 0.0
        for start in range(0, len(indices), trainer.batch_size):
            batch_idx = indices[start : start + trainer.batch_size]
            outputs = network.forward(queries[batch_idx], trees.take(batch_idx), training=False)
            loss, _ = mse_loss(outputs, targets[batch_idx])
            total += loss * len(batch_idx)
        return total / max(len(indices), 1)

    for epoch in range(trainer.max_epochs):
        rng.shuffle(train_idx)
        epoch_losses = []
        for start in range(0, len(train_idx), trainer.batch_size):
            batch_idx = train_idx[start : start + trainer.batch_size]
            optimizer.zero_grad()
            outputs = network.forward(queries[batch_idx], trees.take(batch_idx), training=True)
            loss, grad = mse_loss(outputs, targets[batch_idx])
            network.backward(grad)
            optimizer.clip_gradients(GRADIENT_CLIP)
            optimizer.step()
            epoch_losses.append(loss)
        history.train_losses.append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)
        history.epochs_run = epoch + 1
        if num_validation:
            validation_loss = evaluate(validation_idx)
            history.validation_losses.append(validation_loss)
            if validation_loss <= best_loss:
                best_loss = validation_loss
                best_state = network.get_state()
            if stopper.update(validation_loss, epoch):
                history.stopped_early = True
                break
    if best_state is not None:
        network.set_state(best_state)
    return history


class RecordingAdam(Adam):
    """Adam that appends a copy of the weights to ``log`` after every step."""

    def __init__(self, log: list, parameters, **kwargs):
        super().__init__(parameters, **kwargs)
        self.log = log

    def step(self) -> None:
        super().step()
        self.log.append(self._values.copy())


def fit_both(monkeypatch, examples, labels, **trainer_settings) -> None:
    """Fit one network with ``fit`` and a clone with the reference; both must
    pass through the same weights after every step and end the same."""
    network = ValueNetwork(FEATURIZER, SMALL)
    reference_network = network.clone()
    steps, reference_steps = [], []
    monkeypatch.setattr(trainer_module, "Adam", functools.partial(RecordingAdam, steps))
    history = ValueNetworkTrainer(network, **trainer_settings).fit(examples, labels)
    monkeypatch.setattr(
        trainer_module, "Adam", functools.partial(RecordingAdam, reference_steps)
    )
    reference = reference_fit(
        ValueNetworkTrainer(reference_network, **trainer_settings), examples, labels
    )
    assert history == reference
    assert len(steps) == len(reference_steps) > 0
    for index, (mine, theirs) in enumerate(zip(steps, reference_steps)):
        assert np.array_equal(mine, theirs), f"weights differ after step {index}"
    for mine, theirs in zip(network.parameters(), reference_network.parameters()):
        assert np.array_equal(mine.value, theirs.value), mine.name
    assert (network.label_mean, network.label_std) == (
        reference_network.label_mean,
        reference_network.label_std,
    )


@settings(max_examples=40, deadline=None)
@given(
    # Twenty examples or more get a validation split.
    examples=example_lists(min_size=2, max_size=12) | example_lists(min_size=20, max_size=40),
    data=st.data(),
)
def test_fit_learns_what_the_take_loop_learned(examples, data):
    labels = data.draw(
        st.lists(st.floats(0.5, 5e4), min_size=len(examples), max_size=len(examples))
    )
    trainer_settings = dict(
        learning_rate=0.01,
        batch_size=data.draw(
            st.sampled_from([1, 3, 128]) | st.integers(len(examples), len(examples) + 3)
        ),
        max_epochs=data.draw(st.integers(1, 3)),
        validation_fraction=data.draw(st.sampled_from([0.0, 0.1, 0.3])),
        patience=data.draw(st.integers(1, 2)),
        seed=data.draw(st.integers(0, 1000)),
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        fit_both(monkeypatch, examples, labels, **trainer_settings)


@pytest.mark.parametrize("batch_size", [1, 3, 7, 128])
@pytest.mark.parametrize("validation_fraction", [0.0, 0.2])
def test_fit_learns_what_the_take_loop_learned_on_a_fixed_set(
    monkeypatch, batch_size, validation_fraction
):
    examples = seeded_examples(45, seed=7)
    labels = np.random.default_rng(7).uniform(1.0, 1e4, size=45)
    fit_both(
        monkeypatch, examples, labels, learning_rate=0.01, batch_size=batch_size,
        max_epochs=3, validation_fraction=validation_fraction, patience=3, seed=11,
    )


# ---------------------------------------------------------------------- #
# Collection: one restriction per alias set
# ---------------------------------------------------------------------- #
def reference_collect(queries, cost_model, max_points_per_query, seed=0) -> list:
    """``collect_simulation_data`` restricting the query once per candidate."""
    rng = new_rng(seed)
    enumerator = DynamicProgrammingOptimizer(cost_model, physical=False)
    points = []
    for query in queries:
        result = enumerator.optimize(query, collect_all=True)
        query_points = []
        for candidate in result.enumerated:
            restricted = query.restricted_to(candidate.aliases)
            query_points.extend(augment_data_point(restricted, candidate.plan, candidate.cost))
        if max_points_per_query is not None and len(query_points) > max_points_per_query:
            keep = rng.choice(len(query_points), size=max_points_per_query, replace=False)
            query_points = [query_points[i] for i in sorted(keep)]
        points.extend(query_points)
    return points


@pytest.mark.parametrize("max_points_per_query", [None, 40])
def test_collection_restricts_each_alias_set_once(
    estimator, three_table_query, five_table_query, max_points_per_query
):
    queries = [three_table_query, five_table_query]
    dataset = collect_simulation_data(
        queries, CoutCostModel(estimator), max_points_per_query=max_points_per_query, seed=3
    )
    reference = reference_collect(
        queries, CoutCostModel(estimator), max_points_per_query, seed=3
    )
    assert [
        (point.query.fingerprint(), point.plan.fingerprint(), point.cost)
        for point in dataset.points
    ] == [(query.fingerprint(), plan.fingerprint(), cost) for query, plan, cost in reference]

    # A restricted query is named after its source query and alias set.
    objects: dict[str, set[int]] = {}
    for point in dataset.points:
        objects.setdefault(point.query.name, set()).add(id(point.query))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len(objects) < len(dataset.points)
