"""Configuration of the Balsa agent.

Defaults follow the paper's settings (§4–§8.1): beam size 20, top-k 10,
timeout slack 2, timeout label 4096 s, on-policy updates, count-based safe
exploration, simulation bootstrapping from :math:`C_{out}`.  The additional
"small" preset scales the search and training knobs down so that full training
runs complete in seconds on CPU, which the benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.model.value_network import ValueNetworkConfig


@dataclass
class BalsaConfig:
    """All knobs of a Balsa training run.

    Attributes:
        seed: Root seed (controls initialisation, shuffling and exploration).
        num_iterations: Real-execution training iterations.
        beam_size: Beam width ``b`` of the tree search.
        top_k: Number of complete plans collected per search (``k``).
        enumerate_scan_operators: Whether search actions also assign scan
            operators.
        exploration: ``"count"`` (safe exploration, default), ``"epsilon"``
            (ε-greedy random-plan injection) or ``"none"``.
        epsilon: Random-plan probability for ε-greedy exploration.
        use_timeouts: Enable safe execution via timeouts (§4.3) with the
            paper's slack factor ``S = 2`` on the best known max per-query
            runtime.
        timeout_label: Label (seconds) assigned to timed-out executions.
        use_simulation: Bootstrap from a simulator before real execution.
        simulator: ``"cout"`` (default), ``"expert"`` or ``"none"``.
        sim_max_points_per_query: Cap on augmented simulation points per query.
        sim_max_epochs: Epoch budget for training V_sim.
        on_policy: Update V_real on the latest iteration's data only (True) or
            retrain from scratch on all experience (False; Neo-style).
        update_epochs: Epochs per on-policy update.
        retrain_epochs: Epoch budget when retraining from scratch.
        learning_rate: Learning rate for real-execution updates.
        batch_size: Minibatch size for value-network training.
        network: Value-network architecture hyper-parameters.
        num_execution_nodes: Simulated execution-node pool size (wall-clock
            accounting only).
        eval_interval: Evaluate on the test set every this many iterations
            (0 disables periodic test evaluation).
    """

    seed: int = 0
    num_iterations: int = 100

    # Plan search (§4.2).
    beam_size: int = 20
    top_k: int = 10
    enumerate_scan_operators: bool = True

    # Exploration (§5).
    exploration: str = "count"
    epsilon: float = 0.1

    # Safe execution (§4.3).
    use_timeouts: bool = True
    timeout_label: float = 4096.0

    # Simulation bootstrapping (§3).
    use_simulation: bool = True
    simulator: str = "cout"
    sim_max_points_per_query: int = 5000
    sim_max_epochs: int = 20

    # Value-network updates (§4.1).
    on_policy: bool = True
    update_epochs: int = 5
    retrain_epochs: int = 20
    learning_rate: float = 1e-3
    batch_size: int = 128
    network: ValueNetworkConfig = field(default_factory=ValueNetworkConfig)

    # Infrastructure (§7).
    num_execution_nodes: int = 3
    eval_interval: int = 10

    def with_seed(self, seed: int) -> "BalsaConfig":
        """A copy of the config with a different root seed (per-agent runs)."""
        return replace(self, seed=seed, network=replace(self.network, seed=seed))

    @classmethod
    def small(cls, seed: int = 0, num_iterations: int = 12) -> "BalsaConfig":
        """A scaled-down preset for tests and benchmarks (seconds, not hours)."""
        return cls(
            seed=seed,
            num_iterations=num_iterations,
            beam_size=5,
            top_k=3,
            enumerate_scan_operators=False,
            sim_max_points_per_query=600,
            sim_max_epochs=8,
            update_epochs=5,
            retrain_epochs=10,
            network=ValueNetworkConfig(
                query_hidden=32, query_embedding=16, tree_channels=(32, 16), head_hidden=16,
                seed=seed,
            ),
            num_execution_nodes=2,
            eval_interval=4,
        )

    @classmethod
    def paper(cls, seed: int = 0) -> "BalsaConfig":
        """The paper-faithful preset (500 iterations, b=20, k=10)."""
        return cls(seed=seed, num_iterations=500)
