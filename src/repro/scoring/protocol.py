"""The ``ScoringBackend`` protocol: one contract for every scoring path.

Everything between ``BeamSearchPlanner.search(score_fn=...)`` and the
value network's inference entry points lives behind this interface.  A backend
accepts ``(query, plans)`` scoring requests pinned to a model version, runs
value-network forward passes *somewhere* — on the calling thread or in a
pool of scorer processes — and returns raw-unit
predictions.  The serving layer picks an implementation through
``PlannerService(scoring_backend=...)``; beam search itself never knows which one is
wired in (its ``score_fn`` signature is unchanged).

A version pin is the network itself: the caller hands over the live
:class:`ValueNetwork` it resolved (in-process scoring uses it directly; the
process backend publishes its weights as a snapshot first), or ``None`` for
the backend's provider network.  Two requests pinned to different networks
are never mixed into one forward pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.plans.nodes import PlanNode
from repro.sql.query import Query

if TYPE_CHECKING:
    from repro.model.value_network import ValueNetwork


class ScoringBackendError(RuntimeError):
    """A scoring backend failed to serve a request.

    Typed so the serving layer can distinguish backend infrastructure
    failures (a scorer process crashed mid-batch, no network to score with,
    a submit timed out) from planner bugs — and count them toward
    its in-process fallback — while the waiting search still gets an
    exception instead of a hang.
    """


@dataclass
class ScoringBridgeStats:
    """Counters describing the forward passes scoring requests turned into.

    Attributes:
        requests: Scoring requests submitted by beam searches.
        examples: Total (query, plan) pairs scored.
        forward_batches: Value-network forward passes actually run.
        max_batch_examples: Largest single forward-pass batch actually run.
        versions_published: Model versions published to scorer processes
            (process backend only).
        worker_crashes: Scorer processes that died mid-service (process
            backend only).
        workers_respawned: Crashed scorer processes replaced with fresh ones
            (process backend with ``max_respawns > 0`` only).
        workers_current: Scorer processes serving at snapshot time (gauge).
        queue_depth: Requests in flight across the pool at snapshot time
            (gauge).
        worker_queue_depths: Per-worker in-flight request counts at snapshot
            time (gauge vector; dead workers report 0).
        worker_inflight: Per-worker counts of batches actually being scored
            at snapshot time (gauge vector).
    """

    requests: int = 0
    examples: int = 0
    forward_batches: int = 0
    max_batch_examples: int = 0
    versions_published: int = 0
    worker_crashes: int = 0
    workers_respawned: int = 0
    workers_current: int = 0
    queue_depth: int = 0
    worker_queue_depths: tuple = ()
    worker_inflight: tuple = ()

    @property
    def mean_batch_examples(self) -> float:
        """Average examples per forward pass (0 when nothing was scored)."""
        return self.examples / self.forward_batches if self.forward_batches else 0.0


@runtime_checkable
class ScoringBackend(Protocol):
    """The scoring path contract the planner service programs against."""

    def submit(
        self, query: Query, plans: Sequence[PlanNode], version: ValueNetwork | None = None
    ) -> np.ndarray:
        """Score ``plans`` for ``query`` with ``version``; blocks until done.

        Drop-in replacement for ``ValueNetwork.predict`` — searches call this
        as their ``score_fn`` (via a bound wrapper).  ``plans`` is any sized,
        sliceable sequence of plan nodes; beam search hands over a
        :class:`~repro.plans.table.PlanView`, which builds a node only when
        it is indexed or iterated.  Raises :class:`ScoringBackendError` on
        backend infrastructure failures.
        """
        ...

    def stats(self) -> ScoringBridgeStats:
        """A snapshot of the batching counters."""
        ...

    def close(self) -> None:
        """Release scorer processes; pending requests are served."""
        ...
