"""Featurisation of queries and plans for the value network.

Paper §7:

- *"A query is featurized as a vector [table → selectivity] where each slot
  corresponds to a table and holds its estimated selectivity.  Absent tables'
  slots are filled with zeros."* — :class:`~repro.featurization.query_encoder.QueryEncoder`.
- *"Each plan has the same encoding as Neo"* — a per-node feature vector of a
  physical-operator one-hot concatenated with a multi-hot of the base tables
  covered by the node's subtree —
  :class:`~repro.featurization.plan_encoder.PlanEncoder`.

:class:`~repro.featurization.featurizer.QueryPlanFeaturizer` bundles the two
and packs them into :class:`~repro.nn.tree_conv.TreeBatch` objects for training
and inference.
"""

from repro.featurization.query_encoder import QueryEncoder
from repro.featurization.plan_encoder import PlanEncoder
from repro.featurization.featurizer import (
    FeaturizedExample,
    QueryPlanFeaturizer,
    SignatureFeaturizer,
    batch_examples,
    canonical_signature,
)

__all__ = [
    "QueryEncoder",
    "PlanEncoder",
    "FeaturizedExample",
    "QueryPlanFeaturizer",
    "SignatureFeaturizer",
    "batch_examples",
    "canonical_signature",
]
