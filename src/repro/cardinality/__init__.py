"""Cardinality estimation.

Two estimators are provided:

- :class:`~repro.cardinality.estimator.HistogramEstimator` — the textbook
  PostgreSQL-style estimator (per-column histograms, attribute independence,
  System-R join selectivities) used by both the :math:`C_{out}` simulator and
  the expert optimizers, matching paper §3.3.
- :class:`~repro.cardinality.noise.NoisyEstimator` — wraps another estimator
  and divides its estimates by random noise factors, reproducing the
  robustness experiment in §10 (footnote 11).
"""

from repro.cardinality.base import CardinalityEstimator
from repro.cardinality.estimator import HistogramEstimator
from repro.cardinality.noise import NoisyEstimator

__all__ = [
    "CardinalityEstimator",
    "HistogramEstimator",
    "NoisyEstimator",
]
