"""Shadow evaluation: gate candidate models on evidence, not hope.

A freshly fine-tuned value network can regress badly on individual queries
(Neo, VLDB 2019), so promotion must be earned.  The :class:`ShadowEvaluator`
replans a *probe workload* with both the serving and the candidate model —
a beam planner over each network it is handed, as the live-traffic shadower
builds them — costs the chosen plans under one shared yardstick, and only
approves the candidate when the regression bounds hold:

- no single probe query's plan may cost more than ``max_regression`` times
  the serving plan, and
- the candidate's total probe cost may not exceed ``max_total_regression``
  times the serving total.

Those bounds live in one function, :func:`judge`, and the replan-and-cost
step in one helper, :func:`shadow_probe`.  The live-traffic
:class:`~repro.server.shadow_traffic.TrafficShadower` calls both over its
window of sampled requests, so the probe gate and the live gate are one rule
fed by two sample sources.

Every evaluation produces a :class:`PromotionDecision` — the audit record the
:class:`~repro.lifecycle.registry.ModelRegistry` keeps so "why is version 7
serving?" always has an answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.lifecycle.snapshot import LifecycleError
from repro.model.value_network import ValueNetwork
from repro.planning.adapters import BeamPlanner
from repro.planning.envelope import PlanRequest
from repro.planning.protocol import Planner
from repro.plans.nodes import PlanNode
from repro.search.beam import BeamSearchPlanner
from repro.sql.query import Query

#: A shared plan yardstick: ``(query, plan) -> cost``.
PlanCost = Callable[[Query, PlanNode], float]


@dataclass(frozen=True)
class ProbeResult:
    """One probe query's serving-vs-candidate comparison.

    Attributes:
        query_name: The probe query.
        serving_cost: Yardstick cost of the serving model's chosen plan.
        candidate_cost: Yardstick cost of the candidate model's chosen plan.
        regression: ``candidate_cost / serving_cost`` (> 1 is a regression).
    """

    query_name: str
    serving_cost: float
    candidate_cost: float
    regression: float


@dataclass
class PromotionDecision:
    """The audit record of one shadow evaluation.

    Attributes:
        candidate_version: Registry version of the evaluated candidate.
        serving_version: Registry version it was compared against.
        promoted: Whether the gate approved the candidate.
        reason: Human-readable verdict (which bound failed, or "passed").
        probes: Per-query comparisons.
        max_regression: Worst per-query regression observed.
        regression_threshold: The per-query bound that was enforced.
        total_regression: Candidate total probe cost / serving total.
        total_threshold: The workload-level bound that was enforced.
        created_at: ``time.time()`` when the decision was made.
    """

    candidate_version: int | None
    serving_version: int | None
    promoted: bool
    reason: str
    probes: list[ProbeResult] = field(default_factory=list)
    max_regression: float = 0.0
    regression_threshold: float = 0.0
    total_regression: float = 0.0
    total_threshold: float = 0.0
    created_at: float = field(default_factory=time.time)

    def to_json_dict(self) -> dict:
        """JSON-safe dict form (see :mod:`repro.server.wire`)."""
        from repro.server.wire import promotion_decision_to_json_dict

        return promotion_decision_to_json_dict(self)


def shadow_probe(
    query: Query,
    candidate: Planner,
    serving: Planner,
    plan_cost: PlanCost,
    *,
    candidate_version: int | None = None,
    serving_version: int | None = None,
) -> ProbeResult:
    """Plan ``query`` with both planners and cost both best plans.

    Both plans are costed with the shared yardstick, so the comparison never
    trusts either model's own predictions.  A side that returns no plan
    raises :class:`LifecycleError` naming the side and its version.
    """
    request = PlanRequest(query=query, k=1)
    costs = []
    for side, planner, version in (
        ("serving", serving, serving_version),
        ("candidate", candidate, candidate_version),
    ):
        result = planner.plan(request)
        if not result.plans:
            raise LifecycleError(
                f"shadow {side} planner (version {version}) returned no plan "
                f"for {query.name!r}"
            )
        costs.append(float(plan_cost(query, result.best_plan)))
    serving_cost, candidate_cost = costs
    return ProbeResult(
        query_name=query.name,
        serving_cost=serving_cost,
        candidate_cost=candidate_cost,
        regression=candidate_cost / max(serving_cost, 1e-12),
    )


def judge(
    probes: Sequence[ProbeResult],
    max_regression: float,
    max_total_regression: float,
    *,
    candidate_version: int | None = None,
    serving_version: int | None = None,
) -> PromotionDecision:
    """Apply the two regression bounds to ``probes``: the one gate rule.

    The per-query bound fails when any probe's candidate plan costs more than
    ``max_regression`` times the serving plan; the workload bound fails when
    the candidate's total cost exceeds ``max_total_regression`` times the
    serving total.  The promotion gate feeds it the probe workload, the live
    shadower its window of sampled requests.  A zero serving cost is guarded,
    so a free serving plan never divides by zero.
    """
    worst = max(probes, key=lambda p: p.regression, default=None)
    serving_total = sum(p.serving_cost for p in probes)
    candidate_total = sum(p.candidate_cost for p in probes)
    total_regression = candidate_total / max(serving_total, 1e-12)
    promoted = False
    if worst is not None and worst.regression > max_regression:
        reason = (
            f"per-query regression bound violated: {worst.query_name} "
            f"regressed {worst.regression:.3f}x > {max_regression:.3f}x"
        )
    elif total_regression > max_total_regression:
        reason = (
            f"workload regression bound violated: total probe cost "
            f"{total_regression:.3f}x > {max_total_regression:.3f}x"
        )
    else:
        promoted = True
        reason = "passed: all regression bounds hold"
    return PromotionDecision(
        candidate_version=candidate_version,
        serving_version=serving_version,
        promoted=promoted,
        reason=reason,
        probes=list(probes),
        max_regression=worst.regression if worst is not None else 0.0,
        regression_threshold=max_regression,
        total_regression=total_regression,
        total_threshold=max_total_regression,
    )


class ShadowEvaluator:
    """Replans a probe workload with candidate vs serving and applies bounds.

    Args:
        probe_queries: The known workload to shadow-plan (typically the
            training queries — the same set the cache warmer replays).
        plan_cost: Shared yardstick ``(query, plan) -> cost`` (e.g.
            ``CoutCostModel(estimator).cost``).  Both models' chosen plans
            are costed with it, so the comparison never trusts either
            model's own predictions.
        max_regression: Per-query bound: candidate cost may not exceed this
            multiple of the serving cost on any probe.
        max_total_regression: Workload bound on total probe cost.
        planner: Beam-search configuration used for both sides (defaults to
            paper settings).
    """

    def __init__(
        self,
        probe_queries: Sequence[Query],
        plan_cost: PlanCost,
        max_regression: float = 1.5,
        max_total_regression: float = 1.1,
        planner: BeamSearchPlanner | None = None,
    ):
        self.probe_queries = list(probe_queries)
        if not self.probe_queries:
            raise ValueError("shadow evaluation needs at least one probe query")
        if max_regression <= 0 or max_total_regression <= 0:
            raise ValueError("regression bounds must be positive")
        self.plan_cost = plan_cost
        self.max_regression = max_regression
        self.max_total_regression = max_total_regression
        self.planner = planner or BeamSearchPlanner()

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        candidate: ValueNetwork,
        serving: ValueNetwork,
        candidate_version: int | None = None,
        serving_version: int | None = None,
    ) -> PromotionDecision:
        """Shadow-plan the probes with both models and decide on promotion.

        Args:
            candidate: The freshly trained network under evaluation.
            serving: The network currently taking traffic.
            candidate_version: Registry version recorded on the decision.
            serving_version: Registry version recorded on the decision.
        """
        candidate_planner = BeamPlanner(candidate, planner=self.planner)
        serving_planner = BeamPlanner(serving, planner=self.planner)
        probes = [
            shadow_probe(
                query, candidate_planner, serving_planner, self.plan_cost,
                candidate_version=candidate_version,
                serving_version=serving_version,
            )
            for query in self.probe_queries
        ]
        return judge(
            probes,
            self.max_regression,
            self.max_total_regression,
            candidate_version=candidate_version,
            serving_version=serving_version,
        )
