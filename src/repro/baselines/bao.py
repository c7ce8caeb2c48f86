"""Bao: steering the expert optimizer with per-query hint sets (paper §8.4.1).

Bao does not build plans itself.  For every query it chooses one *hint set*
(a subset of physical operators the expert optimizer may use), lets the expert
plan under that restriction, executes the resulting plan and learns a model of
``(query, hint set) -> latency`` from the observations.

Following the paper's tuned setup, our Bao:

- bootstraps its experience from the unrestricted expert plan of every
  training query (the "bootstrap from PostgreSQL's expert plans" optimization
  the paper enables);
- trains on *all* past experience (the paper found Bao's sliding window of
  2000 unstable and trained on everything);
- selects arms greedily from its model with an ε-greedy exploration term.

The latency model is a ridge regression over (query selectivity vector ⊗ arm
one-hot) features in log space — a deliberately lightweight stand-in for Bao's
TCNN that preserves the method's structure (fixed small action space, expert
produces the plans).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.agent.environment import BalsaEnvironment
from repro.execution.hints import STANDARD_HINT_SETS
from repro.featurization.query_encoder import QueryEncoder
from repro.optimizer.expert import ExpertOptimizer
from repro.planning.envelope import PlanRequest, PlanResult
from repro.sql.query import Query
from repro.utils.rng import new_rng

#: ε-greedy arm-exploration probability during training.
EPSILON = 0.15
#: Ridge regularisation of the latency model.
RIDGE_LAMBDA = 1.0


@dataclass
class BaoObservation:
    """One (query, arm, latency) observation."""

    query: Query
    arm_index: int
    latency: float


@dataclass
class BaoHistory:
    """Per-iteration workload runtimes of a Bao training run."""

    train_runtimes: list[float] = field(default_factory=list)
    test_runtimes: list[float] = field(default_factory=list)


class BaoAgent:
    """The Bao baseline.

    Implements the :class:`~repro.planning.protocol.Planner` protocol: a
    :class:`PlanRequest` picks an arm (honouring ``knobs["explore"]``) and
    returns the steered expert's plan, with the chosen arm recorded in
    ``result.extra``.

    Args:
        environment: Workload environment.
        expert: The expert optimizer Bao steers.
        seed: RNG seed.

    The arms are :data:`STANDARD_HINT_SETS`.
    """

    name = "bao"

    _uid_counter = itertools.count()

    def __init__(
        self,
        environment: BalsaEnvironment,
        expert: ExpertOptimizer,
        seed: int = 0,
    ):
        self.environment = environment
        self.expert = expert
        self._rng = new_rng(seed)
        self.query_encoder = QueryEncoder(environment.database.schema, environment.estimator)
        self.observations: list[BaoObservation] = []
        self.history = BaoHistory()
        self._weights: np.ndarray | None = None
        self._uid = next(BaoAgent._uid_counter)
        self._model_version = 0
        self._experts_by_arm = {
            i: expert.with_hint_set(hint_set) for i, hint_set in enumerate(STANDARD_HINT_SETS)
        }

    # ------------------------------------------------------------------ #
    # Featurisation and the latency model
    # ------------------------------------------------------------------ #
    def _features(self, query: Query, arm_index: int) -> np.ndarray:
        """Features of a (query, arm) pair: query vector ⊗ arm one-hot + bias."""
        query_vector = self.query_encoder.encode(query)
        num_arms = len(STANDARD_HINT_SETS)
        features = np.zeros(num_arms * len(query_vector) + num_arms + 1)
        start = arm_index * len(query_vector)
        features[start : start + len(query_vector)] = query_vector
        features[num_arms * len(query_vector) + arm_index] = 1.0
        features[-1] = 1.0
        return features

    def _refit_model(self) -> None:
        """Ridge regression of log latency on (query, arm) features."""
        self._model_version += 1
        if not self.observations:
            self._weights = None
            return
        rows = []
        targets = []
        for obs in self.observations:
            rows.append(self._features(obs.query, obs.arm_index))
            targets.append(np.log1p(obs.latency))
        design = np.vstack(rows)
        target = np.asarray(targets)
        gram = design.T @ design + RIDGE_LAMBDA * np.eye(design.shape[1])
        self._weights = np.linalg.solve(gram, design.T @ target)

    def predict_latency(self, query: Query, arm_index: int) -> float:
        """Predicted latency of running ``query`` under arm ``arm_index``."""
        if self._weights is None:
            return 0.0
        return float(np.expm1(self._features(query, arm_index) @ self._weights))

    # ------------------------------------------------------------------ #
    # Arm selection and execution
    # ------------------------------------------------------------------ #
    def choose_arm(self, query: Query, explore: bool = True) -> int:
        """Pick the arm with the lowest predicted latency (ε-greedy in training)."""
        if explore and self._rng.random() < EPSILON:
            return int(self._rng.integers(len(STANDARD_HINT_SETS)))
        return self._best_arm(query)[0]

    def _best_arm(self, query: Query) -> tuple[int, float]:
        """The greedily chosen arm and its predicted latency (one model pass)."""
        predictions = [
            self.predict_latency(query, arm) for arm in range(len(STANDARD_HINT_SETS))
        ]
        best = int(np.argmin(predictions))
        return best, predictions[best]

    def version_key(self) -> tuple:
        """Identity of this agent's current latency model (a cache key).

        Bumped on every model refit so serving caches never return an arm the
        retrained model would no longer choose.
        """
        return (self.name, self._uid, self._model_version)

    def plan(self, request: PlanRequest) -> PlanResult:
        """Choose an arm and return the steered expert's plan for the request.

        ``request.knobs["explore"]`` (default False) enables the ε-greedy arm
        exploration used during training; the chosen arm index and hint-set
        name are reported in ``result.extra``.
        """
        started = time.perf_counter()
        explore = bool(request.knobs.get("explore", False))
        if explore and self._rng.random() < EPSILON:
            arm = int(self._rng.integers(len(STANDARD_HINT_SETS)))
            predicted = self.predict_latency(request.query, arm)
        else:
            arm, predicted = self._best_arm(request.query)
        plan, _ = self._experts_by_arm[arm].optimize_with_cost(request.query)
        return PlanResult(
            plans=[plan],
            predicted_latencies=[predicted],
            planning_seconds=time.perf_counter() - started,
            planner_name=self.name,
            # ε-greedy arm draws are stochastic; a cache must not replay them.
            cacheable=not explore,
            extra={"arm_index": arm, "hint_set": STANDARD_HINT_SETS[arm].name},
        )

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def bootstrap(self) -> None:
        """Seed the experience with the unrestricted expert's plans (arm 0)."""
        for query in self.environment.train_queries:
            plan, _ = self._experts_by_arm[0].optimize_with_cost(query)
            result, _ = self.environment.execute(query, plan)
            self.observations.append(BaoObservation(query, 0, result.latency))
        self._refit_model()

    def train(self, num_iterations: int = 10) -> BaoHistory:
        """Run ``num_iterations`` steer-execute-refit iterations."""
        if not self.observations:
            self.bootstrap()
        for _ in range(num_iterations):
            runtime = 0.0
            for query in self.environment.train_queries:
                planned = self.plan(PlanRequest(query=query, knobs={"explore": True}))
                arm = planned.extra["arm_index"]
                result, _ = self.environment.execute(query, planned.best_plan)
                runtime += result.latency
                self.observations.append(BaoObservation(query, arm, result.latency))
            self._refit_model()
            self.history.train_runtimes.append(runtime)
            self.history.test_runtimes.append(
                self.workload_runtime(self.environment.test_queries)
            )
        return self.history

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def workload_runtime(self, queries) -> float:
        """Execute the greedily chosen arm's plan for each query; sum latencies."""
        total = 0.0
        for query in queries:
            planned = self.plan(PlanRequest(query=query))
            result, _ = self.environment.execute(query, planned.best_plan)
            total += result.latency
        return total
