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

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.model.value_network import ValueNetwork
from repro.plans.nodes import PlanNode
from repro.scoring.core import NetworkResolver, ScoringCore
from repro.scoring.protocol import ScoringBridgeStats, VersionPin
from repro.sql.query import Query

if TYPE_CHECKING:
    from repro.lifecycle.registry import ModelRegistry


class InProcessBackend:
    """Synchronous scoring on the calling thread (GIL-bound).

    Args:
        network_provider: Zero-argument callable returning the current
            network (used for unpinned requests when no registry is
            followed).
        registry: Optional :class:`ModelRegistry` to resolve integer version
            pins against (equivalent to calling :meth:`follow`).
        featurizer: Featuriser for restoring registry snapshots.
        max_batch_size: Forward-pass size cap (larger inputs are chunked).
    """

    def __init__(
        self,
        network_provider: Callable[[], "ValueNetwork | None"] | None = None,
        *,
        registry: "ModelRegistry | None" = None,
        featurizer=None,
        max_batch_size: int = 512,
    ):
        self._resolver = NetworkResolver(network_provider, registry, featurizer)
        self._core = ScoringCore(max_batch_size)
        self._closed = False

    def submit(
        self, query: Query, plans: Sequence[PlanNode], version: VersionPin = None
    ) -> np.ndarray:
        """Score ``plans`` for ``query`` on the calling thread."""
        if self._closed:
            raise RuntimeError("scoring backend is closed")
        if not plans:
            return np.zeros(0, dtype=np.float64)
        network = self._resolver.resolve(version)
        return self._core.predict(network, query, plans)

    def follow(self, registry: "ModelRegistry") -> None:
        """Resolve version pins (and unpinned requests) against ``registry``."""
        self._resolver.follow(registry)

    def stats(self) -> ScoringBridgeStats:
        """A snapshot of the batching counters."""
        return self._core.snapshot()

    def close(self) -> None:
        """Mark the backend closed (no resources to release)."""
        self._closed = True
