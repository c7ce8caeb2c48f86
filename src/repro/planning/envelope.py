"""The uniform planning envelopes: :class:`PlanRequest` and :class:`PlanResult`.

Every planner in the repository — beam search over the value network, the
classical DP/greedy enumerators, the QuickPick and random samplers, the expert
baselines, and the Bao/Neo agents — speaks the same request/response shape:

- a :class:`PlanRequest` carries the query plus the serving knobs that apply
  to *any* backend: how many plans to return (``k``), an optional planning
  budget (``deadline_seconds``), a scheduling ``priority``, and a free-form
  ``knobs`` mapping for planner-specific switches (e.g. Bao's ``explore``);
- a :class:`PlanResult` carries the plans, their predicted costs/latencies,
  wall-clock planning time, search statistics and the identity of the planner
  that produced it.

The envelopes are deliberately plain dataclasses so they can cross thread and
cache boundaries freely; :class:`~repro.service.service.ServiceResponse` is a
:class:`PlanResult` subtype, which makes cache hits, single-flight joins and
fresh searches indistinguishable in shape.

:class:`AdmissionError` is the typed rejection the serving front door raises
for requests that cannot be admitted (expired deadline, over capacity).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.plans.nodes import PlanNode
from repro.sql.query import Query


class PlanningError(RuntimeError):
    """Base class for planning-API errors."""


class AdmissionError(PlanningError):
    """A request was rejected at the service front door.

    Attributes:
        reason: Machine-readable rejection reason — ``"deadline_expired"`` or
            ``"over_capacity"``.
    """

    def __init__(self, message: str, reason: str = "rejected"):
        super().__init__(message)
        self.reason = reason


class UnknownPlannerError(PlanningError, KeyError):
    """A registry lookup named a planner that is not registered."""


@dataclass
class PlanRequest:
    """One planning request, understood by every registered planner.

    Attributes:
        query: The query to plan.
        k: Maximum number of complete plans to return (planners that produce a
            single plan ignore larger values; samplers and beam search honour
            it).
        deadline_seconds: Optional end-to-end budget in seconds.  Planners
            invoked directly measure it from the moment planning starts; the
            serving layer anchors it at admission, so time spent waiting for
            a planner that plans one request at a time consumes budget too.  The front door rejects requests whose budget is
            already non-positive with :class:`AdmissionError` and hands the
            *remaining* budget to the planner; budget-aware planners (beam
            search) cut their search off when it runs out.
        priority: Scheduling priority (higher is more urgent).  Recorded on
            request stats; reserved for priority-aware schedulers.
        knobs: Free-form per-request planner switches (e.g. ``{"explore":
            True}`` for Bao's ε-greedy arm selection).
    """

    query: Query
    k: int = 1
    deadline_seconds: float | None = None
    priority: int = 0
    knobs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.query, Query):
            raise TypeError(f"query must be a Query, got {type(self.query).__name__}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if self.deadline_seconds is not None and (
            isinstance(self.deadline_seconds, bool)
            or not isinstance(self.deadline_seconds, (int, float))
        ):
            raise TypeError("deadline_seconds must be a number or None")
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise ValueError(f"priority must be an integer, got {self.priority!r}")
        if not isinstance(self.knobs, Mapping):
            raise TypeError("knobs must be a mapping")

    @property
    def expired(self) -> bool:
        """Whether the request arrived with a non-positive planning budget."""
        return self.deadline_seconds is not None and self.deadline_seconds <= 0


@dataclass
class PlanResult:
    """What every planner returns for one :class:`PlanRequest`.

    Attributes:
        plans: Up to ``k`` complete plans.  Planners with a cost model sort
            them by ascending predicted cost/latency.  A list, except on a
            shared-tier cache hit: a :class:`~repro.service.cache.TierPlans`
            sequence there, which builds the trees when first read.
        predicted_latencies: The planner's score for each plan — predicted
            latency for learned planners, model cost for classical ones, and
            ``nan`` for samplers that score nothing.
        planning_seconds: Wall-clock planning time.
        planner_name: Registry identity of the planner that produced this
            result (``"beam"``, ``"dp"``, ``"postgres"``, ...).
        states_expanded: Search states expanded (0 for non-search planners).
        plans_scored: Distinct candidate plans scored (0 when not applicable).
        deadline_exceeded: True when the planner cut its search short because
            the request's planning budget ran out; the result may then hold
            fewer than ``k`` plans (possibly none).
        cacheable: Whether serving layers may memoise this result for
            identical future requests.  Stochastic planners (samplers, ε-greedy
            exploration) set this False so caches never freeze a random draw.
        extra: Planner-specific extras (e.g. Bao's chosen ``arm_index``).
    """

    plans: list[PlanNode]
    predicted_latencies: list[float]
    planning_seconds: float = 0.0
    states_expanded: int = 0
    plans_scored: int = 0
    planner_name: str = ""
    deadline_exceeded: bool = False
    cacheable: bool = True
    extra: dict[str, Any] = field(default_factory=dict)

    #: The fields above as encoded JSON, rendered on first use by
    #: :func:`repro.server.wire.plan_result_json_bytes`.  Unannotated, so not
    #: a dataclass field: ``==``, ``repr``, ``replace`` and ``asdict`` ignore it.
    _json_bytes = None

    @property
    def best_plan(self) -> PlanNode:
        """The first (predicted-best) plan."""
        if not self.plans:
            raise PlanningError(
                "result holds no plans"
                + (" (planning budget exhausted)" if self.deadline_exceeded else "")
            )
        return self.plans[0]

    @property
    def best_predicted_latency(self) -> float:
        """The predicted cost/latency of :attr:`best_plan`."""
        if not self.predicted_latencies:
            raise PlanningError("result holds no predictions")
        return self.predicted_latencies[0]

    def to_json_dict(self) -> dict:
        """JSON-safe dict form (:func:`repro.server.wire.plan_result_to_json_dict`).

        The planning core's one reach into the serving packages: the
        benchmark suite's self-test encodes a search result this way.
        """
        from repro.server.wire import plan_result_to_json_dict

        return plan_result_to_json_dict(self)
