"""The Balsa agent: bootstrap from simulation, safely execute, safely explore.

The training loop follows §2.1/§4 of the paper:

1. **Simulation phase** — collect ``D_sim`` with DP over a minimal cost model,
   train ``V_sim`` supervised, and initialise ``V_real`` from it.
2. **Real-execution phase** — repeat for ``num_iterations``:

   - *Execute*: plan every training query with beam search guided by
     ``V_real``; pick the plan to run with the exploration strategy; execute
     it under the current timeout; add the (augmented, label-corrected)
     experience to ``D_real``.
   - *Update*: improve ``V_real`` with SGD, either on the latest iteration's
     data (on-policy, default) or by retraining from scratch on everything
     (the Neo-style ablation).

Elapsed wall-clock time is accounted with the simulated execution cluster
(pipelined planning + parallel execution, Figure 5) plus the measured planning
and model-update times, which yields the learning-efficiency curves of
Figures 7/8.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from repro.agent.config import BalsaConfig
from repro.agent.environment import BalsaEnvironment
from repro.agent.experience import ExecutionRecord, ExperienceBuffer, TrainingPoint
from repro.agent.exploration import make_exploration
from repro.agent.history import IterationMetrics, TrainingHistory
from repro.agent.timeout_policy import TimeoutPolicy
from repro.costmodel.cout import CoutCostModel
from repro.costmodel.expert import ExpertCostModel
from repro.execution.cluster import ExecutionCluster
from repro.model.trainer import ValueNetworkTrainer
from repro.model.value_network import ValueNetwork
from repro.planning.adapters import BeamPlanner
from repro.planning.envelope import PlanRequest, PlanResult
from repro.plans.analysis import operator_composition
from repro.plans.nodes import PlanNode
from repro.search.beam import BeamSearchPlanner
from repro.simulation.collect import collect_simulation_data
from repro.simulation.trainer import train_simulation_model
from repro.sql.query import Query
from repro.utils.rng import derive_seed

#: Safety latency cap (seconds) on executions of test plans.
TEST_TIMEOUT = 600.0


@dataclass
class SearchCounts:
    """What an agent's beam searches did, summed over its life.

    ``states_expanded`` and ``plans_scored`` add up each search's
    :class:`PlanResult`; ``score_calls`` and ``scored_examples`` are counted
    by the ``score_fn`` the agent hands the search, one call per batch.
    """

    states_expanded: int = 0
    plans_scored: int = 0
    score_calls: int = 0
    scored_examples: int = 0


class _SuitePlanning:
    """An agent's planning under the names the benchmark suite reads.

    The suite's ``learn`` workload wraps ``agent.planner_service.plan_many``
    in a traced span and reads ``total_states_expanded``,
    ``total_plans_scored``, ``scoring.requests`` and ``scoring.examples``
    from ``agent.planner_service.metrics()``.  It holds the agent through a
    weak reference: the agent holds it, and a cycle would keep every finished
    agent's networks and experience alive until the cycle collector ran.
    """

    def __init__(self, agent: "BalsaAgent"):
        self._agent = weakref.ref(agent)

    def plan_many(self, requests: Iterable[PlanRequest]) -> list[PlanResult]:
        """Plan each request in turn with :meth:`BalsaAgent.plan`."""
        plan = self._agent().plan
        return [plan(request) for request in requests]

    def metrics(self) -> SimpleNamespace:
        """The agent's :class:`SearchCounts` under the suite's names."""
        counts = self._agent().search_counts
        return SimpleNamespace(
            total_states_expanded=counts.states_expanded,
            total_plans_scored=counts.plans_scored,
            scoring=SimpleNamespace(
                requests=counts.score_calls, examples=counts.scored_examples
            ),
        )


class BalsaAgent:
    """A Balsa learned-optimizer agent.

    Args:
        environment: The workload + engine bundle to train against.
        config: Training configuration.
        expert_runtimes: Optional per-query expert latencies used to normalise
            runtimes in the recorded metrics (train and test query names mixed
            in one mapping).
        agent_id: Identifier recorded on collected experience (used by
            diversified experiences).
    """

    name = "balsa"

    def __init__(
        self,
        environment: BalsaEnvironment,
        config: BalsaConfig | None = None,
        expert_runtimes: dict[str, float] | None = None,
        agent_id: int = 0,
    ):
        self.environment = environment
        self.config = config or BalsaConfig()
        self.expert_runtimes = expert_runtimes or {}
        self.agent_id = agent_id

        self.experience = ExperienceBuffer()
        self.timeout_policy = TimeoutPolicy(
            timeout_label=self.config.timeout_label,
            enabled=self.config.use_timeouts,
        )
        self.exploration = make_exploration(
            self.config.exploration,
            epsilon=self.config.epsilon,
            seed=derive_seed(self.config.seed, "exploration", agent_id),
        )
        self.planner = BeamSearchPlanner(
            beam_size=self.config.beam_size,
            top_k=self.config.top_k,
            enumerate_scan_operators=self.config.enumerate_scan_operators,
        )
        # The agent plans by calling the search on its own network: every
        # update changes the weights before the next iteration plans, so a
        # plan cache in front of the search would never hit.
        self.search_counts = SearchCounts()
        # frozen suite: ``benchmarks/suite/workloads.py`` reads this name; it
        # goes once the suite reads ``search_counts``.
        self.planner_service = _SuitePlanning(self)
        self.cluster = ExecutionCluster(num_nodes=self.config.num_execution_nodes)
        self.history = TrainingHistory()
        self.value_network: ValueNetwork | None = None
        self._elapsed_seconds = 0.0
        self._label_transform_fitted = False

    # ------------------------------------------------------------------ #
    # Phase 1: simulation bootstrapping
    # ------------------------------------------------------------------ #
    def bootstrap_from_simulation(self) -> None:
        """Collect ``D_sim`` and train ``V_sim``; initialise ``V_real`` from it."""
        config = self.config
        if not config.use_simulation or config.simulator == "none":
            self.value_network = ValueNetwork(self.environment.featurizer, config.network)
            return
        cost_model = self._make_simulator()
        dataset = collect_simulation_data(
            self.environment.train_queries,
            cost_model,
            max_points_per_query=config.sim_max_points_per_query,
            seed=derive_seed(config.seed, "sim-collect"),
        )
        network, stats = train_simulation_model(
            dataset,
            self.environment.featurizer,
            network_config=config.network,
            batch_size=config.batch_size,
            max_epochs=config.sim_max_epochs,
            seed=derive_seed(config.seed, "sim-train"),
        )
        # V_real is initialised from V_sim (paper §4.1).
        self.value_network = network
        self.history.sim_dataset_size = stats.dataset_size
        self.history.sim_collection_seconds = stats.collection_seconds
        self.history.sim_train_seconds = stats.train_seconds

    def _make_simulator(self):
        """Build the simulation cost model named by the config."""
        simulator = self.config.simulator
        if simulator == "cout":
            return CoutCostModel(self.environment.estimator)
        if simulator == "expert":
            return ExpertCostModel(self.environment.estimator, self.environment.database)
        raise ValueError(f"unknown simulator {simulator!r}")

    # ------------------------------------------------------------------ #
    # Phase 2: learning from real execution
    # ------------------------------------------------------------------ #
    def train(self, num_iterations: int | None = None) -> TrainingHistory:
        """Run the full training pipeline and return its history."""
        if self.value_network is None:
            self.bootstrap_from_simulation()
        iterations = (
            num_iterations if num_iterations is not None else self.config.num_iterations
        )
        for _ in range(iterations):
            self.train_iteration()
        return self.history

    def train_iteration(self) -> IterationMetrics:
        """Run one execute + update iteration and record its metrics."""
        if self.value_network is None:
            self.bootstrap_from_simulation()
        config = self.config
        iteration = len(self.history.iterations)
        timeout = self.timeout_policy.current_timeout()

        planning_times: list[float] = []
        wall_latencies: list[float] = []
        chosen: list[tuple[Query, PlanNode]] = []
        latencies: list[float] = []
        num_timeouts = 0

        # Plan the whole iteration's queries first, then execute and explore
        # serially, so seeded runs stay reproducible.
        responses = self.planner_service.plan_many(
            PlanRequest(query=query, k=config.top_k)
            for query in self.environment.train_queries
        )
        for query, response in zip(self.environment.train_queries, responses):
            planning_times.append(response.planning_seconds)
            plan = self.exploration.choose(query, response, self.experience)
            chosen.append((query, plan))

            result, was_cached = self.environment.execute(query, plan, timeout=timeout)
            label_latency = self.timeout_policy.label_for(result.latency, result.timed_out)
            latencies.append(result.latency)
            wall_latencies.append(0.0 if was_cached else result.latency)
            num_timeouts += int(result.timed_out)
            self.experience.add(
                ExecutionRecord(
                    query=query,
                    plan=plan,
                    latency=label_latency,
                    timed_out=result.timed_out,
                    iteration=iteration,
                    agent_id=self.agent_id,
                )
            )

        # Timeouts tighten based on this iteration's maximum per-query runtime.
        self.timeout_policy.observe_iteration(max(latencies) if latencies else 0.0)

        update_started = time.perf_counter()
        self._update_value_network(iteration)
        update_seconds = time.perf_counter() - update_started

        timing = self.cluster.iteration_elapsed(planning_times, wall_latencies)
        self._elapsed_seconds += timing.elapsed + update_seconds

        metrics = self._record_metrics(
            iteration=iteration,
            chosen=chosen,
            latencies=latencies,
            num_timeouts=num_timeouts,
            planning_seconds=timing.planning_time,
            update_seconds=update_seconds,
            timeout_budget=timeout,
        )
        self.history.iterations.append(metrics)
        return metrics

    # ------------------------------------------------------------------ #
    # Value-network updates (§4.1)
    # ------------------------------------------------------------------ #
    def _update_value_network(self, iteration: int) -> None:
        config = self.config
        if config.on_policy:
            points = self.experience.training_points(iteration=iteration)
            refit = not self._label_transform_fitted
            # The very first real-execution update has to move the network
            # from cost-scale targets (simulation) to latency-scale targets,
            # which needs a full training budget; later on-policy updates are
            # cheap incremental refinements (paper §4.1).
            epochs = config.update_epochs if self._label_transform_fitted else config.retrain_epochs
            network = self.value_network
        else:
            # Neo-style: reset to random weights and retrain on everything.
            points = self.experience.training_points()
            refit = True
            epochs = config.retrain_epochs
            network = ValueNetwork(self.environment.featurizer, config.network)
            self.value_network = network
        if not points:
            return
        self._fit_points(network, points, refit_label_transform=refit, max_epochs=epochs)
        self._label_transform_fitted = True

    def _fit_points(
        self,
        network: ValueNetwork,
        points: list[TrainingPoint],
        refit_label_transform: bool,
        max_epochs: int,
    ) -> None:
        featurizer = self.environment.featurizer
        examples = [featurizer.featurize(p.query, p.plan) for p in points]
        labels = [p.label for p in points]
        trainer = ValueNetworkTrainer(
            network,
            learning_rate=self.config.learning_rate,
            batch_size=self.config.batch_size,
            max_epochs=max_epochs,
            validation_fraction=0.1,
            patience=2,
            seed=derive_seed(self.config.seed, "update", len(self.experience)),
        )
        trainer.fit(
            examples,
            labels,
            refit_label_transform=refit_label_transform,
            max_epochs=max_epochs,
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def plan(self, request: PlanRequest) -> PlanResult:
        """Serve one :class:`PlanRequest` (the :class:`Planner` protocol entry).

        Beam search on the agent's current network, honouring ``request.k``
        and ``request.deadline_seconds`` as :class:`BeamPlanner` does; the
        search's work is added to :attr:`search_counts`.
        """
        network = self.value_network
        if network is None:
            raise RuntimeError("agent has not been trained or bootstrapped yet")
        counts = self.search_counts

        def score(query: Query, plans: Sequence[PlanNode]):
            counts.score_calls += 1
            counts.scored_examples += len(plans)
            return network.predict(query, plans)

        result = BeamPlanner(network, planner=self.planner, score_fn=score).plan(request)
        counts.states_expanded += result.states_expanded
        counts.plans_scored += result.plans_scored
        return result

    def plan_query(self, query: Query) -> PlanNode:
        """Plan a query for deployment: the predicted-best plan (no exploration)."""
        return self.plan(PlanRequest(query=query, k=self.config.top_k)).best_plan

    def evaluate(
        self, queries, timeout: float | None = None
    ) -> dict[str, tuple[PlanNode, float]]:
        """Plan and execute ``queries`` (no exploration, no experience added).

        Args:
            queries: Iterable of queries (e.g. the test split).
            timeout: Optional safety cap on per-query latency (defaults to
                :data:`TEST_TIMEOUT`).

        Returns:
            Mapping of query name to ``(plan, latency)``.
        """
        if self.value_network is None:
            raise RuntimeError("agent has not been trained or bootstrapped yet")
        budget = timeout if timeout is not None else TEST_TIMEOUT
        query_list = list(queries)
        responses = self.planner_service.plan_many(
            PlanRequest(query=query, k=self.config.top_k) for query in query_list
        )
        results: dict[str, tuple[PlanNode, float]] = {}
        for query, response in zip(query_list, responses):
            plan = response.best_plan
            result, _ = self.environment.execute(query, plan, timeout=budget)
            results[query.name] = (plan, result.latency)
        return results

    def workload_runtime(self, queries, timeout: float | None = None) -> float:
        """Sum of per-query latencies of the agent's plans for ``queries``."""
        results = self.evaluate(queries, timeout=timeout)
        return float(sum(latency for _, latency in results.values()))

    def close(self) -> None:
        """Nothing to release: the agent holds no process, thread or file."""

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def _expert_workload_runtime(self, queries) -> float | None:
        total = 0.0
        for query in queries:
            latency = self.expert_runtimes.get(query.name)
            if latency is None:
                return None
            total += latency
        return total

    def _record_metrics(
        self,
        iteration: int,
        chosen: list[tuple[Query, PlanNode]],
        latencies: list[float],
        num_timeouts: int,
        planning_seconds: float,
        update_seconds: float,
        timeout_budget: float | None,
    ) -> IterationMetrics:
        config = self.config
        train_queries = self.environment.train_queries
        train_runtime = float(np.sum(latencies))
        best_known = 0.0
        for query in train_queries:
            best = self.experience.best_latency(query)
            best_known += best if best is not None else config.timeout_label
        expert_total = self._expert_workload_runtime(train_queries)
        normalized = train_runtime / expert_total if expert_total else None

        test_runtime = None
        test_normalized = None
        evaluate_now = (
            config.eval_interval > 0
            and len(self.environment.test_queries) > 0
            and (iteration % config.eval_interval == 0 or iteration == config.num_iterations - 1)
        )
        if evaluate_now:
            test_runtime = self.workload_runtime(self.environment.test_queries)
            expert_test = self._expert_workload_runtime(self.environment.test_queries)
            if expert_test:
                test_normalized = test_runtime / expert_test

        return IterationMetrics(
            iteration=iteration,
            train_runtime=train_runtime,
            best_known_runtime=best_known,
            normalized_runtime=normalized,
            elapsed_seconds=self._elapsed_seconds,
            unique_plans_seen=self.experience.num_unique_plans(),
            num_timeouts=num_timeouts,
            planning_seconds=planning_seconds,
            update_seconds=update_seconds,
            timeout_budget=timeout_budget,
            test_runtime=test_runtime,
            test_normalized_runtime=test_normalized,
            composition=operator_composition(plan for _, plan in chosen),
        )
