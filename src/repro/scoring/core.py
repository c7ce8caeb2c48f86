"""Shared scoring machinery: chunked forward passes, stats, pin resolution.

:class:`ScoringCore` hands a request within the batch-size cap to the network
whole, chunks a larger one to the cap (one network pass per chunk), and
keeps the :class:`~repro.scoring.protocol.ScoringBridgeStats` counters —
recording the size of every chunk *actually run* (not the pre-chunk request
size).
Every backend composes one, so the counters mean the same thing regardless
of where the forward pass executes.

:class:`NetworkResolver` is the in-process half of version pinning: live
:class:`ValueNetwork` pins score directly, integer pins restore (and cache)
snapshots from a followed :class:`~repro.lifecycle.registry.ModelRegistry`,
and ``None`` falls through to the provider or the registry's serving version.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.model.value_network import ValueNetwork
from repro.plans.nodes import PlanNode
from repro.scoring.protocol import ScoringBackendError, ScoringBridgeStats, VersionPin
from repro.sql.query import Query

if TYPE_CHECKING:
    from repro.lifecycle.registry import ModelRegistry


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


class NetworkResolver:
    """Resolve version pins to live networks for in-process scoring.

    Args:
        network_provider: Zero-argument callable returning the current
            network; the fallback for unpinned requests when no registry is
            followed.
        registry: Optional registry to resolve integer pins (and, when
            following, unpinned requests) against.
        featurizer: Featuriser used to restore registry snapshots.  When
            omitted, restored networks fall back to a signature-derived
            stand-in — fine for scoring shipped examples, but such a network
            raises ``TypeError`` when asked to score raw plans.
    """

    def __init__(
        self,
        network_provider: Callable[[], "ValueNetwork | None"] | None = None,
        registry: "ModelRegistry | None" = None,
        featurizer=None,
    ):
        self.network_provider = network_provider
        self.registry = registry
        self.featurizer = featurizer
        self._restored: dict[int, ValueNetwork] = {}
        self._lock = threading.Lock()

    def follow(self, registry: "ModelRegistry") -> None:
        """Resolve pins against ``registry`` from now on."""
        with self._lock:
            self.registry = registry
            self._restored.clear()

    def resolve(self, version: VersionPin) -> ValueNetwork:
        """The network ``version`` pins (raises ``ScoringBackendError``)."""
        if isinstance(version, ValueNetwork):
            return version
        if version is None:
            if self.registry is not None and self.registry.serving_version is not None:
                return self._restore(self.registry.serving_version)
            if self.network_provider is not None:
                network = self.network_provider()
                if network is not None:
                    return network
            raise ScoringBackendError(
                "no model to score with: backend has no network provider and "
                "follows no registry with a serving version"
            )
        if self.registry is None:
            raise ScoringBackendError(
                f"cannot resolve registry version {version!r}: backend is not "
                "following a ModelRegistry (call follow() first)"
            )
        return self._restore(int(version))

    def _restore(self, version: int) -> ValueNetwork:
        from repro.lifecycle.snapshot import LifecycleError

        with self._lock:
            cached = self._restored.get(version)
            if cached is not None:
                return cached
        try:
            snapshot = self.registry.get(version)
            if self.featurizer is not None:
                network = snapshot.restore(self.featurizer)
            else:
                network = ValueNetwork.from_state_dict(snapshot.state)
        except LifecycleError as error:
            raise ScoringBackendError(str(error)) from error
        with self._lock:
            # Keep only current restorations: pins reference the serving
            # chain, so a tiny cache bounded by insertion is enough.
            if len(self._restored) > 8:
                self._restored.clear()
            self._restored[version] = network
        return network
