"""Exploration strategies over beam-search outputs (paper §5 and §8.3.3).

- :class:`CountBasedExploration` — Balsa's safe exploration: among the top-k
  plans returned by beam search (all "probably good"), execute the best plan
  not executed before; fall back to the predicted-best plan when all have been
  seen (Figure 3 of the paper).
- :class:`EpsilonGreedyExploration` — the unsafe baseline: with probability ε
  a random valid plan (à la QuickPick) is executed instead of the predicted
  best.
- :class:`NoExploration` — pure exploitation.
"""

from __future__ import annotations

import abc


from repro.agent.experience import ExperienceBuffer
from repro.optimizer.quickpick import random_plan
from repro.planning.envelope import PlanResult
from repro.plans.nodes import PlanNode
from repro.sql.query import Query
from repro.utils.rng import new_rng


class ExplorationStrategy(abc.ABC):
    """Chooses which of the planner's candidate plans to execute during training."""

    @abc.abstractmethod
    def choose(
        self, query: Query, planner_result: PlanResult, experience: ExperienceBuffer
    ) -> PlanNode:
        """Pick the plan to execute for ``query`` this iteration."""


class NoExploration(ExplorationStrategy):
    """Always execute the predicted-best plan."""

    def choose(
        self, query: Query, planner_result: PlanResult, experience: ExperienceBuffer
    ) -> PlanNode:
        return planner_result.best_plan


class CountBasedExploration(ExplorationStrategy):
    """Balsa's count-based safe exploration (§5)."""

    def choose(
        self, query: Query, planner_result: PlanResult, experience: ExperienceBuffer
    ) -> PlanNode:
        for plan in planner_result.plans:
            if not experience.has_executed(query.name, plan):
                return plan
        return planner_result.best_plan


class EpsilonGreedyExploration(ExplorationStrategy):
    """ε-greedy exploration with QuickPick-style random plans.

    Args:
        epsilon: Probability of executing a random valid plan.
        seed: RNG seed.
    """

    def __init__(self, epsilon: float = 0.1, seed: int = 0):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self._rng = new_rng(seed)

    def choose(
        self, query: Query, planner_result: PlanResult, experience: ExperienceBuffer
    ) -> PlanNode:
        if self._rng.random() < self.epsilon:
            return random_plan(query, self._rng)
        return planner_result.best_plan


def make_exploration(
    kind: str, epsilon: float = 0.1, seed: int = 0
) -> ExplorationStrategy:
    """Factory from a config string (``"count"`` / ``"epsilon"`` / ``"none"``)."""
    kind = kind.lower()
    if kind == "count":
        return CountBasedExploration()
    if kind == "epsilon":
        return EpsilonGreedyExploration(epsilon=epsilon, seed=seed)
    if kind == "none":
        return NoExploration()
    raise ValueError(f"unknown exploration strategy {kind!r}")
