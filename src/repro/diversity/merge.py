"""Merging experience across agents and retraining ("Balsa-Nx", paper §6).

A value network guides plan search, so each agent tends to experience only the
plans its own network prefers — a single "mode".  Merging the experience
buffers of N independently seeded agents and retraining a fresh agent on the
union (with *no* additional query executions) covers multiple modes and yields
a more robust, better-generalising value network (Figure 16 / Table 1 /
Figure 17b).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.agent.balsa import BalsaAgent
from repro.agent.config import BalsaConfig
from repro.agent.environment import BalsaEnvironment
from repro.agent.experience import ExperienceBuffer
from repro.model.value_network import ValueNetwork


def merge_agent_experiences(agents: Sequence[BalsaAgent]) -> ExperienceBuffer:
    """Merge the experience buffers of several trained agents."""
    if not agents:
        raise ValueError("at least one agent is required")
    first = agents[0].experience
    return first.merged_with(agent.experience for agent in agents[1:])


def count_unique_plans(buffers: Iterable[ExperienceBuffer]) -> int:
    """Number of distinct (query, plan) pairs across several buffers (Table 1)."""
    unique: set[tuple[str, str]] = set()
    for buffer in buffers:
        for record in buffer.records:
            unique.add((record.query.fingerprint(), record.plan.fingerprint()))
    return len(unique)


def retrain_from_experience(
    environment: BalsaEnvironment,
    experience: ExperienceBuffer,
    config: BalsaConfig | None = None,
    expert_runtimes: dict[str, float] | None = None,
    epochs: int | None = None,
) -> BalsaAgent:
    """Train a fresh agent purely offline on merged experience.

    No queries are executed: the new agent's value network is trained on the
    merged buffer's (augmented, label-corrected) data and can then be used for
    planning or continued training.

    Args:
        environment: Workload environment (shared with the source agents).
        experience: The merged experience buffer.
        config: Configuration for the new agent (defaults to ``BalsaConfig()``).
        expert_runtimes: Optional expert runtimes for metric normalisation.
        epochs: Training epoch budget (defaults to the config's retrain budget).

    Returns:
        The retrained agent, whose ``experience`` is the merged buffer.
    """
    config = config or BalsaConfig()
    agent = BalsaAgent(environment, config, expert_runtimes=expert_runtimes)
    agent.experience = experience
    agent.value_network = ValueNetwork(environment.featurizer, config.network)
    points = experience.training_points()
    if points:
        agent._fit_points(
            agent.value_network,
            points,
            refit_label_transform=True,
            max_epochs=epochs if epochs is not None else config.retrain_epochs,
        )
        agent._label_transform_fitted = True
    return agent
