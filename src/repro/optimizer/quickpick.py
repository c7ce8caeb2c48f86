"""Random valid-plan sampling (QuickPick-style).

Two consumers:

- the §3 motivation experiment ("randomly initialize 6 agents ... 45x slower"),
  which needs agents that emit random-but-valid plans;
- the ε-greedy exploration ablation (§8.3.3), where random joins are injected
  into beam search.

``QuickPick`` [Waas & Pellenkoft 2000] samples join orders uniformly from the
valid (connected) space; physical operators are sampled uniformly as well.
"""

from __future__ import annotations

import time

import numpy as np

from repro.planning.envelope import PlanRequest, PlanResult
from repro.plans.builders import all_join_operators, all_scan_operators, scan
from repro.plans.nodes import JoinNode, PlanNode
from repro.sql.query import Query
from repro.utils.rng import new_rng


def random_plan(
    query: Query,
    rng: int | np.random.Generator | None = None,
    bushy: bool = True,
) -> PlanNode:
    """Sample a uniformly random valid plan for ``query``.

    Args:
        query: Query to plan.
        rng: Seed or generator.
        bushy: Allow bushy shapes.  When false, only left-deep plans are
            sampled.

    Returns:
        A complete, valid physical plan.
    """
    generator = new_rng(rng)
    scan_ops = all_scan_operators()
    join_ops = all_join_operators()

    def random_scan(alias: str) -> PlanNode:
        return scan(query, alias, scan_ops[generator.integers(len(scan_ops))])

    if not bushy:
        # Left-deep: grow one plan by repeatedly joining a random connected alias.
        remaining = list(query.aliases)
        start = remaining.pop(generator.integers(len(remaining)))
        current: PlanNode = random_scan(start)
        while remaining:
            connected = [
                a
                for a in remaining
                if query.joins_between(current.leaf_aliases, {a})
            ]
            if not connected:
                raise ValueError(f"query {query.name!r} has a disconnected join graph")
            alias = connected[generator.integers(len(connected))]
            remaining.remove(alias)
            operator = join_ops[generator.integers(len(join_ops))]
            current = JoinNode(current, random_scan(alias), operator)
        return current

    partials: list[PlanNode] = [random_scan(alias) for alias in query.aliases]
    while len(partials) > 1:
        # Collect all joinable (connected) ordered pairs.
        candidates: list[tuple[int, int]] = []
        for i in range(len(partials)):
            for j in range(len(partials)):
                if i == j:
                    continue
                if query.joins_between(
                    partials[i].leaf_aliases, partials[j].leaf_aliases
                ):
                    candidates.append((i, j))
        if not candidates:
            raise ValueError(f"query {query.name!r} has a disconnected join graph")
        i, j = candidates[generator.integers(len(candidates))]
        operator = join_ops[generator.integers(len(join_ops))]
        joined = JoinNode(partials[i], partials[j], operator)
        partials = [p for idx, p in enumerate(partials) if idx not in (i, j)]
        partials.append(joined)
    return partials[0]


class QuickPickOptimizer:
    """An "optimizer" that returns random valid plans.

    Args:
        seed: RNG seed.

    Plans of every shape, bushy included, are sampled.
    """

    name = "quickpick"

    def __init__(self, seed: int = 0):
        self._rng = new_rng(seed)

    def plan(self, request: PlanRequest) -> PlanResult:
        """Sample ``request.k`` random valid plans (the :class:`Planner` entry).

        QuickPick has no cost model, so predictions are ``nan``; results are
        marked non-cacheable so serving layers never freeze the sampler.
        """
        started = time.perf_counter()
        plans = [
            random_plan(request.query, self._rng) for _ in range(request.k)
        ]
        return PlanResult(
            plans=plans,
            predicted_latencies=[float("nan")] * len(plans),
            planning_seconds=time.perf_counter() - started,
            planner_name=self.name,
            cacheable=False,
        )
