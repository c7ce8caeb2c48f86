"""Threaded batching backend: cross-search coalescing on one scoring thread.

Each beam search scores the children of an expanded state in one submit.
When several searches run concurrently, those per-frontier batches are often
small and arrive close together; this backend funnels them through a single
scoring thread that drains the request queue, concatenates the requests'
plans into one larger network pass (``ValueNetwork.predict_pairs``), then
scatters the predictions back to the waiting searches.  The per-pass cost of
tree convolution is thereby amortised across the beam frontiers of *all*
in-flight queries.

A request carries its raw ``(query, plans)``: there is no featurisation step
on either side any more.  The network looks each plan's subplans up in the
activations it has kept and convolves only the nodes that are new — for a
beam-search frontier, the one join on top of two scored inputs.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.model.value_network import ValueNetwork
from repro.plans.nodes import PlanNode
from repro.scoring.core import NetworkResolver, ScoringCore
from repro.scoring.protocol import ScoringBridgeStats, VersionPin
from repro.sql.query import Query

if TYPE_CHECKING:
    from repro.lifecycle.registry import ModelRegistry

_SENTINEL = object()


class _ScoreRequest:
    """One pending scoring request from a beam search."""

    __slots__ = ("query", "plans", "network", "done", "result", "error")

    def __init__(self, query: Query, plans: list[PlanNode], network: ValueNetwork):
        self.query = query
        self.plans = plans
        self.network = network
        self.done = threading.Event()
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None


class ThreadedBatchingBackend:
    """Coalesces scoring requests from concurrent searches into large batches.

    Args:
        network_provider: Zero-argument callable returning the current
            network (a callable rather than a reference so the backend
            follows model swaps).
        registry: Optional :class:`ModelRegistry` to resolve integer version
            pins against (equivalent to calling :meth:`follow`).
        featurizer: Featuriser for restoring registry snapshots.
        max_batch_size: Upper bound on examples per forward pass; larger
            coalesced batches are chunked.
        coalesce_wait_seconds: How long the scoring thread lingers for
            stragglers after receiving a request before running the batch.
            Zero scores whatever has already queued without waiting.
        adaptive_batching: Enable :class:`ScoringCore`'s load-adaptive
            batch cap: the coalescing budget grows while the request queue
            is deep and shrinks back when it drains.
    """

    def __init__(
        self,
        network_provider: Callable[[], "ValueNetwork | None"] | None = None,
        *,
        registry: "ModelRegistry | None" = None,
        featurizer=None,
        max_batch_size: int = 512,
        coalesce_wait_seconds: float = 0.001,
        adaptive_batching: bool = False,
    ):
        self._resolver = NetworkResolver(network_provider, registry, featurizer)
        self._core = ScoringCore(max_batch_size, adaptive=adaptive_batching)
        self.coalesce_wait_seconds = coalesce_wait_seconds
        self._queue: queue.Queue = queue.Queue()
        self._submit_lock = threading.Lock()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="scoring-backend", daemon=True
        )
        self._thread.start()

    @property
    def max_batch_size(self) -> int:
        return self._core.max_batch_size

    # ------------------------------------------------------------------ #
    # Search-facing API
    # ------------------------------------------------------------------ #
    def submit(
        self, query: Query, plans: list[PlanNode], version: VersionPin = None
    ) -> np.ndarray:
        """Score ``plans`` for ``query``; blocks until the batch runs.

        The pin is resolved here, on the submitting thread; the plans travel
        to the scoring thread with their resolved network.  Requests pinned
        to different networks are never mixed into one forward pass.
        """
        if not plans:
            return np.zeros(0, dtype=np.float64)
        request = _ScoreRequest(query, plans, self._resolver.resolve(version))
        # The closed check and the enqueue share a lock with close() so no
        # request can slip in behind the shutdown sentinel and wait forever.
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("scoring backend is closed")
            self._core.observe_load(self._queue.qsize())
            self._queue.put(request)
        request.done.wait()
        if request.error is not None:
            raise request.error
        return request.result

    def follow(self, registry: "ModelRegistry") -> None:
        """Resolve version pins (and unpinned requests) against ``registry``."""
        self._resolver.follow(registry)

    def stats(self) -> ScoringBridgeStats:
        """A snapshot of the coalescing counters."""
        return self._core.snapshot()

    def close(self) -> None:
        """Stop the scoring thread; pending requests are still served."""
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_SENTINEL)
        self._thread.join()

    # ------------------------------------------------------------------ #
    # Scoring thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                break
            requests = self._gather([item])
            if requests is None:
                break
            self._serve(requests)

    def _gather(self, requests: list[_ScoreRequest]) -> list[_ScoreRequest] | None:
        """Drain stragglers into ``requests`` until the batch budget is met.

        Returns ``None`` when the sentinel arrives mid-drain (after serving
        what was already gathered).
        """
        deadline = time.perf_counter() + self.coalesce_wait_seconds
        saw_sentinel = False
        budget = self._core.batch_cap
        while sum(len(r.plans) for r in requests) < budget:
            remaining = deadline - time.perf_counter()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SENTINEL:
                saw_sentinel = True
                break
            requests.append(item)
        if saw_sentinel:
            self._serve(requests)
            return None
        return requests

    def _serve(self, requests: list[_ScoreRequest]) -> None:
        """Run coalesced forward passes and scatter results to requests.

        Requests pinned to different networks (a hot-swap window: some
        searches still on version N, new ones on N+1) are never mixed into
        one forward pass; each pinned group gets its own batch.
        """
        for group in self._group_by_network(requests):
            try:
                pairs = [
                    (request.query, plan) for request in group for plan in request.plans
                ]
                predictions = self._core.predict_pairs(
                    group[0].network, pairs, requests=len(group)
                )
                offset = 0
                for request in group:
                    request.result = predictions[offset : offset + len(request.plans)]
                    offset += len(request.plans)
            except BaseException as error:  # surface failures in the caller
                for request in group:
                    request.error = error
            finally:
                for request in group:
                    request.done.set()

    @staticmethod
    def _group_by_network(
        requests: Sequence[_ScoreRequest],
    ) -> list[list[_ScoreRequest]]:
        groups: dict[int, list[_ScoreRequest]] = {}
        for request in requests:
            groups.setdefault(id(request.network), []).append(request)
        return list(groups.values())
