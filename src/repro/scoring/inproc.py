"""In-process scoring: forward passes on the calling thread.

The default backend, and the fallback target when the process pool fails.  Each
``submit`` is ``network.predict(query, plans)`` on the calling thread, chunked
to the batch-size cap (a chunk is a slice, so a search's plan view stays a
view): the network reuses the activations it kept for the plans' subplans
and serialises callers on its own lock — concurrency across
searches is limited by the GIL and that lock, which is exactly the
pre-refactor single-process behaviour.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.model.value_network import ValueNetwork
from repro.plans.nodes import PlanNode
from repro.scoring.core import ScoringCore, pinned_network
from repro.scoring.protocol import ScoringBridgeStats
from repro.sql.query import Query


class InProcessBackend:
    """Synchronous scoring on the calling thread (GIL-bound).

    Args:
        network_provider: Zero-argument callable returning the network that
            unpinned requests score with.
        max_batch_size: Forward-pass size cap (larger inputs are chunked).
    """

    def __init__(
        self,
        network_provider: Callable[[], ValueNetwork | None] | None = None,
        *,
        max_batch_size: int = 512,
    ):
        self.network_provider = network_provider
        self._core = ScoringCore(max_batch_size)
        self._closed = False

    def submit(
        self, query: Query, plans: Sequence[PlanNode], version: ValueNetwork | None = None
    ) -> np.ndarray:
        """Score ``plans`` for ``query`` on the calling thread."""
        if self._closed:
            raise RuntimeError("scoring backend is closed")
        if not plans:
            return np.zeros(0, dtype=np.float64)
        network = pinned_network(version, self.network_provider)
        return self._core.predict(network, query, plans)

    def stats(self) -> ScoringBridgeStats:
        """A snapshot of the batching counters."""
        return self._core.snapshot()

    def close(self) -> None:
        """Mark the backend closed (no resources to release)."""
        self._closed = True
