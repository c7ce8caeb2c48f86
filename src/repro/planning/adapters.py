"""Adapters putting every optimizer in the repository behind the protocol.

Most planners implement :class:`~repro.planning.protocol.Planner` natively
(the classical optimizers, the expert baselines, Bao).  The adapters here
cover the rest:

- :class:`BeamPlanner` binds a value network (and optionally a custom scoring
  function) to a :class:`~repro.search.beam.BeamSearchPlanner` so beam search
  can be driven by a bare :class:`~repro.planning.envelope.PlanRequest`;
- :class:`RandomPlanner` samples uniformly random valid plans, deterministic
  per ``(seed, query, index)``;
- :class:`AgentPlanner` fronts a trained (or lazily bootstrapped)
  :class:`~repro.agent.balsa.BalsaAgent` / Neo agent, planning through the
  agent's own planner service.

:func:`registry_from_benchmark` wires the full standard set — ``"beam"``,
``"dp"``, ``"greedy"``, ``"quickpick"``, ``"postgres"``, ``"commdb"``,
``"bao"``, ``"neo"`` and ``"random"`` — for one
:class:`~repro.workloads.benchmark.WorkloadBenchmark`.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from repro.optimizer.quickpick import random_plan
from repro.planning.envelope import PlanRequest, PlanResult
from repro.planning.registry import PlannerRegistry
from repro.search.beam import BeamSearchPlanner
from repro.utils.rng import derive_seed, new_rng

if TYPE_CHECKING:
    from repro.agent.balsa import BalsaAgent
    from repro.model.value_network import ValueNetwork
    from repro.plans.nodes import PlanNode
    from repro.sql.query import Query
    from repro.workloads.benchmark import WorkloadBenchmark

#: The standard registry names, in registration order.
STANDARD_PLANNERS = (
    "beam",
    "dp",
    "greedy",
    "quickpick",
    "postgres",
    "commdb",
    "bao",
    "neo",
    "random",
)


class BeamPlanner:
    """Value-network beam search behind the :class:`Planner` protocol.

    Args:
        network: The value network guiding the search.  Mutually exclusive
            with ``network_provider``.
        network_provider: Zero-argument callable returning the current
            network (for callers that swap networks, e.g. retraining agents).
        planner: The underlying beam search (defaults to paper settings).
        score_fn: Optional replacement for ``network.predict`` (the planner
            service injects its scoring backend's submit here).
    """

    name = "beam"
    #: Concurrent ``plan`` calls are safe: a search keeps its state in locals,
    #: and scoring — ``network.predict`` or a scoring backend's submit —
    #: serialises on the network's own lock or runs in scorer processes.
    thread_safe = True

    def __init__(
        self,
        network: "ValueNetwork | None" = None,
        *,
        network_provider: "Callable[[], ValueNetwork | None] | None" = None,
        planner: BeamSearchPlanner | None = None,
        score_fn: "Callable[[Query, list[PlanNode]], Sequence[float]] | None" = None,
    ):
        if (network is None) == (network_provider is None):
            raise ValueError("provide exactly one of network / network_provider")
        self.network_provider = network_provider or (lambda: network)
        self.planner = planner or BeamSearchPlanner()
        self.score_fn = score_fn

    def _network(self) -> "ValueNetwork":
        network = self.network_provider()
        if network is None:
            raise RuntimeError("beam planner has no value network yet")
        return network

    def version_key(self) -> Hashable:
        """The bound network's weight version (caches invalidate on updates)."""
        return self._network().version_key()

    def plan(self, request: PlanRequest) -> PlanResult:
        """Run beam search for the request, honouring ``k`` and the deadline."""
        deadline = None
        if request.deadline_seconds is not None:
            deadline = time.perf_counter() + request.deadline_seconds
        return self.planner.search(
            request.query,
            self._network(),
            score_fn=self.score_fn,
            top_k=request.k,
            deadline=deadline,
        )


class RandomPlanner:
    """Uniformly random valid plans, deterministic per (seed, query, index)."""

    name = "random"
    #: A pure function of (seed, query, index): no shared mutable state.
    thread_safe = True

    def __init__(self, seed: int = 0, bushy: bool = True):
        self.seed = seed
        self.bushy = bushy

    def plan(self, request: PlanRequest) -> PlanResult:
        """Sample ``request.k`` random valid plans (``nan`` predictions)."""
        started = time.perf_counter()
        plans = [
            random_plan(
                request.query,
                new_rng(derive_seed(self.seed, request.query.name, index)),
                bushy=self.bushy,
            )
            for index in range(request.k)
        ]
        return PlanResult(
            plans=plans,
            predicted_latencies=[float("nan")] * len(plans),
            planning_seconds=time.perf_counter() - started,
            planner_name=self.name,
        )


class AgentPlanner:
    """A Balsa-family agent behind the protocol, planning through its service.

    Args:
        agent: The agent (``BalsaAgent`` or ``NeoAgent``).  If it has not been
            bootstrapped yet, the first request triggers
            ``bootstrap_from_simulation()`` (expert demonstrations for Neo).
        name: Registry identity stamped on results (e.g. ``"neo"``).
    """

    # Not marked thread_safe: the agent plans and retrains on one network and
    # assumes one caller at a time, so the serving layer serialises this
    # adapter's plan() calls.

    def __init__(self, agent: "BalsaAgent", name: str = "balsa"):
        self.agent = agent
        self.name = name
        self._bootstrap_lock = threading.Lock()
        # value_network is assigned *early* inside bootstrap (before training
        # finishes), so readiness needs its own completion flag.
        self._ready = agent.value_network is not None

    def _ready_agent(self) -> "BalsaAgent":
        if not self._ready:
            with self._bootstrap_lock:
                if not self._ready:
                    if self.agent.value_network is None:
                        self.agent.bootstrap_from_simulation()
                    self._ready = True
        return self.agent

    def version_key(self) -> Hashable:
        agent = self._ready_agent()
        return (self.name, agent.value_network.version_key())

    def plan(self, request: PlanRequest) -> PlanResult:
        """Plan through the agent's planner service (cache-aware)."""
        from dataclasses import replace

        response = self._ready_agent().planner_service.plan(request)
        return replace(response, planner_name=self.name)


def registry_from_benchmark(
    benchmark: "WorkloadBenchmark",
    network: "ValueNetwork | None" = None,
    *,
    bao: "object | None" = None,
    neo: "object | None" = None,
    balsa_config: "object | None" = None,
    beam_planner: BeamSearchPlanner | None = None,
    seed: int = 0,
) -> PlannerRegistry:
    """Build a registry with the nine standard planners for ``benchmark``.

    Args:
        benchmark: The workload bundle providing database, experts and
            featurizer.
        network: Value network for ``"beam"`` (a fresh, untrained network is
            built when omitted — useful for serving-shape tests; pass a
            trained agent's ``value_network`` for meaningful plans).
        bao: A (possibly trained) :class:`~repro.baselines.bao.BaoAgent` to
            register as ``"bao"``; a fresh one is built when omitted.
        neo: A (possibly trained) :class:`~repro.baselines.neo.NeoAgent` to
            register as ``"neo"``; a fresh one (which lazily bootstraps from
            expert demonstrations on first use) is built when omitted.
        balsa_config: Config for the fresh Neo agent (default: small preset
            with zero iterations).
        beam_planner: Beam-search parameters for ``"beam"``.
        seed: Seed for the sampling planners and fresh agents.

    Returns:
        The populated :class:`PlannerRegistry`.
    """
    from repro.agent.config import BalsaConfig
    from repro.baselines.bao import BaoAgent
    from repro.baselines.neo import NeoAgent
    from repro.model.value_network import ValueNetwork
    from repro.optimizer.dp import DynamicProgrammingOptimizer
    from repro.optimizer.greedy import GreedyOptimizer
    from repro.optimizer.quickpick import QuickPickOptimizer

    postgres = benchmark.expert("postgres")
    commdb = benchmark.expert("commdb")
    config = balsa_config or BalsaConfig.small(seed=seed, num_iterations=0)
    if network is None:
        network = ValueNetwork(benchmark.featurizer, config.network)
    if bao is None:
        bao = BaoAgent(benchmark.environment(), postgres, seed=seed)
    if neo is None:
        neo = NeoAgent(
            benchmark.environment(),
            postgres,
            config,
            expert_runtimes={},
            agent_id=seed,
        )

    registry = PlannerRegistry()
    registry.register("beam", BeamPlanner(network, planner=beam_planner))
    registry.register("dp", DynamicProgrammingOptimizer(postgres.cost_model))
    registry.register("greedy", GreedyOptimizer(postgres.cost_model))
    registry.register("quickpick", QuickPickOptimizer(seed=seed))
    registry.register("postgres", postgres)
    registry.register("commdb", commdb)
    registry.register("bao", bao)
    registry.register("neo", neo if _is_planner(neo) else AgentPlanner(neo, name="neo"))
    registry.register("random", RandomPlanner(seed=seed))
    return registry


def _is_planner(candidate: object) -> bool:
    """Whether ``candidate`` already speaks the protocol on its own.

    Agents expose ``plan`` but route it through their planner service, which
    requires a bootstrapped network; the :class:`AgentPlanner` wrapper adds
    the lazy bootstrap and the registry name, so agents are always wrapped.
    """
    from repro.agent.balsa import BalsaAgent

    return callable(getattr(candidate, "plan", None)) and not isinstance(
        candidate, BalsaAgent
    )
