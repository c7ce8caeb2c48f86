"""Shared scoring machinery: chunked forward passes, stats, the pinned network.

:class:`ScoringCore` hands a request within the batch-size cap to the network
whole, chunks a larger one to the cap (one network pass per chunk), and
keeps the :class:`~repro.scoring.protocol.ScoringBridgeStats` counters —
recording the size of every chunk *actually run* (not the pre-chunk request
size).
Every backend composes one, so the counters mean the same thing regardless
of where the forward pass executes.

:func:`pinned_network` is what a version pin means to every backend: the
pinned :class:`ValueNetwork` itself, or the provider's network for ``None``.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from repro.model.value_network import ValueNetwork
from repro.plans.nodes import PlanNode
from repro.scoring.protocol import ScoringBackendError, ScoringBridgeStats
from repro.sql.query import Query


class ScoringCore:
    """``network.predict``, chunked above the cap, plus thread-safe batching
    counters.

    Args:
        max_batch_size: Upper bound on examples per forward pass; larger
            requests are chunked.
    """

    def __init__(self, max_batch_size: int = 512):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.max_batch_size = max_batch_size
        self._lock = threading.Lock()
        self._stats = ScoringBridgeStats()

    def predict(
        self, network: ValueNetwork, query: Query, plans: Sequence[PlanNode]
    ) -> np.ndarray:
        """Score ``plans`` in passes of at most the cap and record the counters.

        The in-process inference path: ``network.predict`` keeps what it
        computes per subplan and guards that state itself; the counters here
        have their own lock.  A request within the cap — every beam-search
        batch at the default cap — goes to the network as it came, and its
        result comes back as the network made it.  A larger one is cut into
        slices of ``plans``, so a :class:`~repro.plans.table.PlanView`
        reaches the network as views.

        Args:
            network: The network to score with.
            query: The query the plans belong to.
            plans: The plans of one submit request.
        """
        cap = self.max_batch_size
        size = len(plans)
        if size <= cap:
            predictions = network.predict(query, plans)
            self.record(size, (size,) if size else ())
            return predictions
        outputs: list[np.ndarray] = []
        chunk_sizes: list[int] = []
        for start in range(0, size, cap):
            chunk = plans[start : start + cap]
            outputs.append(network.predict(query, chunk))
            chunk_sizes.append(len(chunk))
        self.record(size, chunk_sizes)
        return np.concatenate(outputs)

    def record(self, examples: int, chunk_sizes: Sequence[int]) -> None:
        """Fold one served request into the counters (used directly by the
        process backend, whose chunks run in the scorer process)."""
        with self._lock:
            stats = self._stats
            stats.requests += 1
            stats.examples += examples
            stats.forward_batches += len(chunk_sizes)
            if chunk_sizes:
                stats.max_batch_examples = max(
                    stats.max_batch_examples, max(chunk_sizes)
                )

    def count_published(self) -> None:
        """Count one model version published to scorer processes."""
        with self._lock:
            self._stats.versions_published += 1

    def count_crash(self) -> None:
        """Count one scorer process lost mid-service."""
        with self._lock:
            self._stats.worker_crashes += 1

    def count_respawn(self) -> None:
        """Count one crashed scorer process replaced with a fresh one."""
        with self._lock:
            self._stats.workers_respawned += 1

    def snapshot(self) -> ScoringBridgeStats:
        """A consistent copy of the counters.

        ``dataclasses.replace`` copies every field by construction, so fields
        added to :class:`ScoringBridgeStats` can never silently read as their
        defaults from snapshots (the old hand-copied version could drift).
        """
        with self._lock:
            return replace(self._stats)


def pinned_network(
    version: ValueNetwork | None,
    network_provider: Callable[[], ValueNetwork | None] | None,
) -> ValueNetwork:
    """The network a request pinned, or the provider's for an unpinned one.

    Raises:
        ScoringBackendError: The request is unpinned and the provider has no
            network (or there is no provider).
    """
    if version is not None:
        return version
    network = network_provider() if network_provider is not None else None
    if network is None:
        raise ScoringBackendError(
            "no model to score with: the request pins no network and the "
            "backend's provider has none"
        )
    return network
