"""Bundled query+plan featurisation and batching."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cardinality.base import CardinalityEstimator
from repro.catalog.schema import Schema
from repro.featurization.plan_encoder import FlattenedPlan, PlanEncoder
from repro.featurization.query_encoder import QueryEncoder
from repro.nn.tree_conv import TreeBatch
from repro.plans.nodes import PlanNode
from repro.sql.query import Query


@dataclass
class FeaturizedExample:
    """One featurised (query, plan) pair.

    Attributes:
        query_encoding: The query's selectivity vector.
        plan: The flattened plan node table.
    """

    query_encoding: np.ndarray
    plan: FlattenedPlan


def canonical_signature(signature: Sequence) -> tuple:
    """Deep-tuple a featuriser signature for order-insensitive comparison.

    Signatures survive JSON round trips (snapshot persistence, wire formats)
    where tuples come back as lists; comparing canonical forms keeps a
    persisted checkpoint loadable into the featurisation that produced it.
    """
    return tuple(
        canonical_signature(item) if isinstance(item, (list, tuple)) else item
        for item in signature
    )


def batch_examples(
    examples: Sequence[FeaturizedExample],
    query_dimension: int,
    plan_node_dimension: int,
) -> tuple[np.ndarray, TreeBatch]:
    """Pack featurised examples into value-network inputs.

    A module-level function (rather than a featuriser method) so scoring
    backends that never see the schema — e.g. a scorer process restored from
    a snapshot's ``featurizer_signature`` — can batch shipped examples from
    the two dimensionalities alone.

    Args:
        examples: Featurised (query, plan) pairs.
        query_dimension: Width of one query encoding.
        plan_node_dimension: Width of one plan-node feature vector.

    Returns:
        ``(query_batch, tree_batch)`` where ``query_batch`` has shape
        ``(batch, query_dim)`` and ``tree_batch`` holds every plan's nodes in
        one table, back to back behind a single sentinel row.

    Raises:
        ValueError: No examples, or an example without a plan node (a
            segment the pooling could not tell from its neighbour's).
    """
    if not examples:
        raise ValueError("cannot batch zero examples")
    plans = [example.plan for example in examples]
    counts = np.array([plan.num_nodes for plan in plans], dtype=np.intp)
    if counts.min() < 1:
        raise ValueError("cannot batch an example with no plan nodes")
    starts = np.cumsum(counts) - counts + 1
    # Each plan's own sentinel (its row 0) is dropped for the shared one, so
    # its local child indices move up by the rows before its segment.
    shift = np.repeat(starts - 1, counts)

    features = np.concatenate(
        [np.zeros((1, plan_node_dimension))]
        + [plan.features[1 : plan.num_nodes + 1] for plan in plans]
    )
    none = np.zeros(1, dtype=np.intp)
    left = np.concatenate([none] + [plan.left[1 : plan.num_nodes + 1] for plan in plans])
    right = np.concatenate([none] + [plan.right[1 : plan.num_nodes + 1] for plan in plans])
    for children in (left, right):
        np.add(children[1:], shift, out=children[1:], where=children[1:] > 0)
    queries = np.concatenate([example.query_encoding for example in examples])
    return (
        queries.reshape(len(examples), query_dimension),
        TreeBatch(features, left, right, starts, counts),
    )


class SignatureFeaturizer:
    """A dimension-only stand-in built from a featuriser signature.

    Carries exactly what inference needs — the two input dimensionalities and
    the signature itself — so a :class:`~repro.model.value_network.ValueNetwork`
    can be restored from a persisted checkpoint in a process that has no
    schema, estimator or database (the scorer processes of the process-based
    scoring backend).  It cannot *featurise*: under the stateless scoring
    contract, featurisation already happened in the submitting worker and
    only :class:`FeaturizedExample` payloads cross the process boundary.
    """

    def __init__(self, signature: Sequence):
        self._signature = canonical_signature(signature)
        try:
            self.query_dimension = int(self._signature[-2])
            self.plan_node_dimension = int(self._signature[-1])
        except (IndexError, TypeError, ValueError):
            raise ValueError(
                f"not a featurizer signature (expected trailing dimensions): "
                f"{signature!r}"
            ) from None

    def signature(self) -> tuple:
        """The canonical signature this stand-in was built from."""
        return self._signature

    def featurize(self, query: Query, plan: PlanNode) -> FeaturizedExample:
        """Unsupported: a signature carries dimensions, not encoders."""
        raise TypeError(
            "SignatureFeaturizer cannot featurize: featurisation happens in "
            "the submitting worker; ship FeaturizedExample payloads instead"
        )

    def batch(
        self, examples: Sequence[FeaturizedExample]
    ) -> tuple[np.ndarray, TreeBatch]:
        """Pack featurised examples (see :func:`batch_examples`)."""
        return batch_examples(examples, self.query_dimension, self.plan_node_dimension)


class QueryPlanFeaturizer:
    """Featurises (query, plan) pairs and batches them for the value network.

    Args:
        schema: Database schema.
        estimator: Cardinality estimator used for query selectivities.
    """

    def __init__(self, schema: Schema, estimator: CardinalityEstimator, cache_size: int = 200_000):
        self.schema = schema
        self.query_encoder = QueryEncoder(schema, estimator)
        self.plan_encoder = PlanEncoder(schema)
        # Featurisation is pure; beam search and training revisit the same
        # subplans constantly, so cache by (query, plan fingerprint).
        self._cache: dict[tuple[str, str], FeaturizedExample] = {}
        self._cache_size = cache_size

    @property
    def query_dimension(self) -> int:
        """Dimensionality of the query encoding."""
        return self.query_encoder.dimension

    def signature(self) -> tuple:
        """Hashable identity of this featuriser's input space.

        Two featurisers with equal signatures produce interchangeable
        encodings: same schema, same dimensionalities.  Model snapshots embed
        the signature so weights trained against one featurisation are never
        silently loaded into a network wired to another.
        """
        return (
            "qpf-v1",
            getattr(self.schema, "name", ""),
            tuple(sorted(self.schema.tables)),
            self.query_dimension,
            self.plan_node_dimension,
        )

    @property
    def plan_node_dimension(self) -> int:
        """Dimensionality of one plan-node feature vector."""
        return self.plan_encoder.node_dimension

    def featurize(self, query: Query, plan: PlanNode) -> FeaturizedExample:
        """Featurise one (query, plan) pair (cached)."""
        key = (query.fingerprint(), plan.fingerprint())
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        example = FeaturizedExample(
            query_encoding=self.query_encoder.encode(query),
            plan=self.plan_encoder.flatten(plan, query.alias_to_table),
        )
        if len(self._cache) < self._cache_size:
            self._cache[key] = example
        return example

    def batch(
        self, examples: Sequence[FeaturizedExample]
    ) -> tuple[np.ndarray, TreeBatch]:
        """Pack featurised examples into network inputs.

        Args:
            examples: Featurised (query, plan) pairs.

        Returns:
            ``(query_batch, tree_batch)`` where ``query_batch`` has shape
            ``(batch, query_dim)`` and ``tree_batch`` holds the plans' nodes
            packed into one table (see :func:`batch_examples`).
        """
        return batch_examples(examples, self.query_dimension, self.plan_node_dimension)
