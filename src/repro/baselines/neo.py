"""Neo-impl: learning from expert demonstrations (paper §8.4).

Our best-effort Neo reproduction mirrors the paper's comparison protocol: it
shares Balsa's modelling choices (same value-network architecture, same
featurisation, same beam search) but differs in the algorithm:

- it bootstraps from *expert demonstrations* — one expert-optimizer plan per
  training query, executed once — instead of simulation;
- every iteration it resets the value network to random weights and retrains
  on the entire accumulated experience;
- it uses no timeouts and no exploration.
"""

from __future__ import annotations

import time

import numpy as np

from repro.agent.balsa import BalsaAgent
from repro.agent.config import BalsaConfig
from repro.agent.environment import BalsaEnvironment
from repro.agent.experience import ExecutionRecord
from repro.agent.history import TrainingHistory
from repro.optimizer.expert import ExpertOptimizer


def neo_config(base: BalsaConfig | None = None) -> BalsaConfig:
    """Derive a Neo-style configuration from a Balsa config.

    Turns off simulation, timeouts, exploration and on-policy learning, which
    is exactly the set of differences the paper controls for in §8.4.
    """
    from dataclasses import replace

    base = base or BalsaConfig()
    return replace(
        base,
        use_simulation=False,
        use_timeouts=False,
        exploration="none",
        on_policy=False,
    )


class NeoAgent(BalsaAgent):
    """The Neo-impl baseline.

    Args:
        environment: Workload environment.
        expert: The expert optimizer providing demonstrations.
        config: Base configuration (Neo-specific switches are forced).
        expert_runtimes: Optional per-query expert latencies for normalisation.
        agent_id: Identifier recorded on experience.
    """

    name = "neo"

    def __init__(
        self,
        environment: BalsaEnvironment,
        expert: ExpertOptimizer,
        config: BalsaConfig | None = None,
        expert_runtimes: dict[str, float] | None = None,
        agent_id: int = 0,
    ):
        super().__init__(
            environment,
            neo_config(config),
            expert_runtimes=expert_runtimes,
            agent_id=agent_id,
        )
        self.expert = expert

    def bootstrap_from_simulation(self) -> None:
        """Bootstrap from expert demonstrations instead of a simulator.

        One demonstration per training query: the expert's plan, executed once
        and added (with subplan augmentation, via the experience buffer) to the
        training data.  The value network is then trained on this dataset.
        """
        from repro.model.value_network import ValueNetwork

        self.value_network = ValueNetwork(self.environment.featurizer, self.config.network)
        started = time.perf_counter()
        latencies = []
        for query in self.environment.train_queries:
            plan, _ = self.expert.optimize_with_cost(query)
            result, _ = self.environment.execute(query, plan, timeout=None)
            latencies.append(result.latency)
            self.experience.add(
                ExecutionRecord(
                    query=query,
                    plan=plan,
                    latency=result.latency,
                    timed_out=False,
                    iteration=-1,
                    agent_id=self.agent_id,
                )
            )
        points = self.experience.training_points()
        self._fit_points(
            self.value_network,
            points,
            refit_label_transform=True,
            max_epochs=self.config.retrain_epochs,
        )
        self._label_transform_fitted = True
        self.history.sim_dataset_size = len(points)
        self.history.sim_collection_seconds = float(np.sum(latencies))
        self.history.sim_train_seconds = time.perf_counter() - started

    def train(self, num_iterations: int | None = None) -> TrainingHistory:
        """Run demonstration bootstrapping followed by retrain-style iterations."""
        return super().train(num_iterations)
