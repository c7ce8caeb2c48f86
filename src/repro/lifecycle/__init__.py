"""The model lifecycle subsystem: serve version N while N+1 earns its place.

Balsa's loop retrains the value network every iteration; a serving deployment
cannot stop the world for that.  This package keeps the
:class:`~repro.service.service.PlannerService` answering on version N while
version N+1 trains, proves itself, and takes over:

- :class:`~repro.lifecycle.registry.ModelRegistry` — immutable, versioned
  :class:`~repro.lifecycle.snapshot.ModelSnapshot` checkpoints with
  ``promote``/``rollback`` and a bounded retention policy;
- :class:`~repro.lifecycle.trainer.BackgroundTrainer` — fine-tunes a *clone*
  of the serving network on fresh experience, on the caller's thread, and
  registers the candidate;
- :class:`~repro.lifecycle.shadow.ShadowEvaluator` — replans a probe workload
  with candidate vs serving (a beam planner over each network) and gates
  promotion on regression bounds, recording a
  :class:`~repro.lifecycle.shadow.PromotionDecision` audit trail;
- :class:`~repro.lifecycle.manager.ModelLifecycle` — the conductor and the
  only code that moves the serving model (promote, rollback, boot-time
  resume): each move hot-swaps atomically (in-flight requests finish on N,
  new requests plan with N+1) together with the registry pointer, and the
  cache warmer immediately replans the known workload so steady-state
  traffic stays warm across the swap.
"""

from repro.lifecycle.manager import ModelLifecycle
from repro.lifecycle.registry import ModelRegistry
from repro.lifecycle.shadow import ProbeResult, PromotionDecision, ShadowEvaluator
from repro.lifecycle.snapshot import LifecycleError, ModelSnapshot
from repro.lifecycle.trainer import BackgroundTrainer, FineTuneReport

__all__ = [
    "BackgroundTrainer",
    "FineTuneReport",
    "LifecycleError",
    "ModelLifecycle",
    "ModelRegistry",
    "ModelSnapshot",
    "ProbeResult",
    "PromotionDecision",
    "ShadowEvaluator",
]
