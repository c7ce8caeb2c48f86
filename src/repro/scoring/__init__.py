"""Pluggable scoring backends: the path from beam search to forward passes.

Everything between ``BeamSearchPlanner.search(score_fn=...)`` and the value
network lives in this package, behind one
:class:`~repro.scoring.protocol.ScoringBackend` protocol
(``submit(query, plans, version) -> ndarray``, ``stats()``, ``close()``)
with two implementations.  The in-process one
hands the plans, as they came, to ``ValueNetwork.predict`` — the network's
single inference entrance, which reuses the activations it kept per subplan
and reads a search's :class:`~repro.plans.table.PlanView` as integer triples
without building a plan node; the process pool iterates the plans (building
them), featurises in the submitting worker and ships examples to
``predict_examples``:

- :class:`~repro.scoring.inproc.InProcessBackend` — forward passes on the
  calling thread, serialised by the network's own lock (the default at any
  worker count, and the serving layer's fallback when the process pool
  fails);
- :class:`~repro.scoring.process.ProcessPoolBackend` — N scorer processes
  restoring published :class:`~repro.lifecycle.snapshot.ModelSnapshot` files
  via the stateless ``ValueNetwork.from_state_dict`` contract, fed by the
  pickle-free :mod:`~repro.scoring.wire` payload format over one task queue
  and one reply pipe per scorer; a fixed pool.  Weights reach the scorers as
  spooled snapshot files, never as live objects.  Slower than in-process
  scoring at every worker count measured: it exists for cross-process
  version pinning and crash containment, not for speed.

A request carries its network: ``version`` is the live network the caller
resolved (``None`` scores with the backend's provider network), and two
networks are never mixed into one forward pass — the invariant the
model-lifecycle hot swap relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.scoring.inproc import InProcessBackend
from repro.scoring.process import ProcessPoolBackend
from repro.scoring.protocol import (
    ScoringBackend,
    ScoringBackendError,
    ScoringBridgeStats,
)
from repro.scoring.wire import pack_examples, unpack_examples

if TYPE_CHECKING:
    from repro.model.value_network import ValueNetwork

#: The names ``make_scoring_backend`` (and ``PlannerService``'s
#: ``scoring_backend``) accept.
BACKEND_NAMES = ("inproc", "process")


def make_scoring_backend(
    name: str,
    network_provider: "Callable[[], ValueNetwork | None] | None" = None,
    *,
    featurizer=None,
    num_workers: int = 2,
    max_batch_size: int = 512,
    **kwargs,
) -> ScoringBackend:
    """Build a scoring backend by name.

    Args:
        name: One of ``"inproc"``, ``"process"``.
        network_provider: Source of the network unpinned requests score with.
        featurizer: Featuriser for the process backend's submitting side
            (the scored network's own when omitted; the in-process backend
            takes none).
        num_workers: Scorer processes (process backend only).
        max_batch_size: Forward-pass size cap (larger requests are chunked).
        **kwargs: Forwarded to the backend constructor.
    """
    # ``benchmarks/suite/`` — frozen by BENCHMARK.json — still passes three
    # spellings that are not part of the interface.  Each is accepted on one
    # line below, marked "frozen suite", until a benchmark PR drops those uses.
    if name in ("inproc", "threaded"):  # frozen suite: a retired backend name
        return InProcessBackend(network_provider, max_batch_size=max_batch_size, **kwargs)
    if name in ("process", "process+shm"):  # frozen suite: a retired backend name
        # frozen suite: a retired keyword, dropped when None (else a TypeError below)
        kwargs = {k: v for k, v in kwargs.items() if (k, v) != ("autoscaler", None)}
        return ProcessPoolBackend(
            featurizer,
            network_provider=network_provider,
            num_workers=num_workers,
            max_batch_size=max_batch_size,
            **kwargs,
        )
    raise ValueError(
        f"unknown scoring backend {name!r}; expected one of {BACKEND_NAMES}"
    )


__all__ = [
    "BACKEND_NAMES",
    "InProcessBackend",
    "ProcessPoolBackend",
    "ScoringBackend",
    "ScoringBackendError",
    "ScoringBridgeStats",
    "make_scoring_backend",
    "pack_examples",
    "unpack_examples",
]
