"""Convenience facade re-exporting the library's main entry points.

Typical usage::

    from repro import BalsaConfig, BalsaAgent, make_job_benchmark

    benchmark = make_job_benchmark(fact_rows=1000, num_queries=40)
    config = BalsaConfig.small(seed=0, num_iterations=20)
    agent = BalsaAgent(
        benchmark.environment(), config,
        expert_runtimes=benchmark.expert_runtimes(),
    )
    agent.train()
    print(agent.workload_runtime(benchmark.test_queries))

Planning API (one protocol, one envelope, a registry)::

    from repro.api import PlanRequest, registry_from_benchmark

    registry = registry_from_benchmark(benchmark, network=agent.value_network)
    result = registry.get("postgres").plan(PlanRequest(query=q, k=3))
"""

from repro.agent.balsa import BalsaAgent
from repro.agent.config import BalsaConfig
from repro.agent.environment import BalsaEnvironment
from repro.baselines.bao import BaoAgent
from repro.baselines.neo import NeoAgent
from repro.diversity.merge import merge_agent_experiences, retrain_from_experience
from repro.experience import (
    ExperienceMetrics,
    ExperienceSink,
    ExperienceTuple,
    OnlineTrainerLoop,
    ReplayBuffer,
)
from repro.lifecycle import (
    BackgroundTrainer,
    LifecycleError,
    ModelLifecycle,
    ModelRegistry,
    ModelSnapshot,
    PromotionDecision,
    ShadowEvaluator,
)
from repro.model.value_network import StateDictMismatchError
from repro.planning.adapters import (
    AgentPlanner,
    BeamPlanner,
    RandomPlanner,
    registry_from_benchmark,
)
from repro.planning.envelope import (
    AdmissionError,
    PlanningError,
    PlanRequest,
    PlanResult,
    UnknownPlannerError,
)
from repro.planning.protocol import Planner, planner_version
from repro.planning.registry import PlannerRegistry
from repro.scoring import (
    InProcessBackend,
    ProcessPoolBackend,
    ScoringBackend,
    ScoringBackendError,
    make_scoring_backend,
)
from repro.search.beam import BeamSearchPlanner
from repro.server import (
    PlanningServer,
    ShadowTrafficStats,
    TrafficShadower,
    WireFormatError,
    plan_request_from_json_dict,
    plan_request_to_json_dict,
    plan_result_from_json_dict,
    plan_result_to_json_dict,
    query_from_json_dict,
    query_to_json_dict,
)
from repro.service.metrics import ServiceMetrics
from repro.service.service import PlannerService, ServiceResponse
from repro.telemetry import MetricsRegistry, Tracer
from repro.workloads.benchmark import (
    WorkloadBenchmark,
    make_job_benchmark,
    make_tpch_benchmark,
)

__all__ = [
    "AdmissionError",
    "AgentPlanner",
    "BackgroundTrainer",
    "BalsaAgent",
    "BalsaConfig",
    "BalsaEnvironment",
    "BaoAgent",
    "BeamPlanner",
    "BeamSearchPlanner",
    "ExperienceMetrics",
    "ExperienceSink",
    "ExperienceTuple",
    "InProcessBackend",
    "LifecycleError",
    "MetricsRegistry",
    "ModelLifecycle",
    "ModelRegistry",
    "ModelSnapshot",
    "NeoAgent",
    "OnlineTrainerLoop",
    "Planner",
    "PlannerRegistry",
    "PlannerService",
    "PlanningError",
    "PlanningServer",
    "PlanRequest",
    "PlanResult",
    "ProcessPoolBackend",
    "PromotionDecision",
    "RandomPlanner",
    "ReplayBuffer",
    "ScoringBackend",
    "ScoringBackendError",
    "ServiceMetrics",
    "ServiceResponse",
    "ShadowEvaluator",
    "ShadowTrafficStats",
    "StateDictMismatchError",
    "Tracer",
    "TrafficShadower",
    "UnknownPlannerError",
    "WireFormatError",
    "WorkloadBenchmark",
    "make_job_benchmark",
    "make_scoring_backend",
    "make_tpch_benchmark",
    "merge_agent_experiences",
    "plan_request_from_json_dict",
    "plan_request_to_json_dict",
    "plan_result_from_json_dict",
    "plan_result_to_json_dict",
    "planner_version",
    "query_from_json_dict",
    "query_to_json_dict",
    "registry_from_benchmark",
    "retrain_from_experience",
]
