"""The unified planning API: one protocol, one envelope, a planner registry.

Every optimizer in the repository — Balsa's beam search, the classical DP and
greedy enumerators, the QuickPick/random samplers, the expert baselines and
the Bao/Neo agents — sits behind the same three pieces:

- the envelopes (:class:`PlanRequest` / :class:`PlanResult`, in
  :mod:`repro.planning.envelope`): a uniform request carrying the query,
  ``k``, a planning budget, a priority and per-request knobs, answered by a
  uniform result carrying plans, predictions, timings, search stats and the
  planner's identity;
- the protocol (:class:`Planner`, in :mod:`repro.planning.protocol`): any
  object with ``name`` and ``plan(request) -> PlanResult``;
- the registry (:class:`PlannerRegistry`, in :mod:`repro.planning.registry`):
  string-keyed lookup, so ``registry.get("postgres").plan(PlanRequest(query=q,
  k=3))`` works for every registered backend;
  :func:`~repro.planning.adapters.registry_from_benchmark` builds one with the
  nine standard planners for a
  :class:`~repro.workloads.benchmark.WorkloadBenchmark`.

The serving front door (:class:`~repro.service.service.PlannerService`)
accepts the same envelopes, adds caching/dedup/concurrency, and enforces
deadlines and capacity with :class:`AdmissionError`.

Adapter classes and :func:`registry_from_benchmark` are re-exported lazily
(they pull in the heavier agent/baseline modules); import them from
:mod:`repro.planning.adapters` directly in library code.
"""

from repro.planning.envelope import (
    AdmissionError,
    PlanningError,
    PlanRequest,
    PlanResult,
    UnknownPlannerError,
)
from repro.planning.protocol import Planner, planner_version
from repro.planning.registry import PlannerRegistry

#: Adapter names resolved lazily from :mod:`repro.planning.adapters` to keep
#: ``import repro.planning`` (pulled in by low-level modules) lightweight and
#: cycle-free.
_LAZY_ADAPTER_NAMES = (
    "AgentPlanner",
    "BeamPlanner",
    "RandomPlanner",
    "STANDARD_PLANNERS",
    "registry_from_benchmark",
)

__all__ = [
    "AdmissionError",
    "Planner",
    "PlannerRegistry",
    "PlanningError",
    "PlanRequest",
    "PlanResult",
    "UnknownPlannerError",
    "planner_version",
    *_LAZY_ADAPTER_NAMES,
]


def __getattr__(name: str):
    if name in _LAZY_ADAPTER_NAMES:
        from repro.planning import adapters

        return getattr(adapters, name)
    raise AttributeError(f"module 'repro.planning' has no attribute {name!r}")
