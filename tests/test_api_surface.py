"""Public-API surface check.

Imports :mod:`repro.api`, asserts every ``__all__`` name resolves, and pins
the surface to a frozen list so accidental drift (a renamed or dropped
re-export) fails CI loudly.  Extending the API is a conscious act: add the
name to ``repro/api.py`` *and* to ``EXPECTED_API`` here.
"""

from __future__ import annotations

import dataclasses

import repro
import repro.api as api
import repro.planning as planning

#: The frozen public surface of ``repro.api``.
EXPECTED_API = sorted(
    [
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
)


#: ``BalsaConfig``'s fields, in declaration order: a new knob is a visible diff.
EXPECTED_BALSA_CONFIG_FIELDS = [
    "seed", "num_iterations",
    "beam_size", "top_k", "enumerate_scan_operators",
    "exploration", "epsilon",
    "use_timeouts", "timeout_label",
    "use_simulation", "simulator",
    "sim_max_points_per_query", "sim_max_epochs",
    "on_policy", "update_epochs", "retrain_epochs", "learning_rate",
    "batch_size", "network",
    "num_execution_nodes", "eval_interval",
]


def test_balsa_config_fields_are_frozen():
    fields = [field.name for field in dataclasses.fields(api.BalsaConfig)]
    assert fields == EXPECTED_BALSA_CONFIG_FIELDS, (
        "BalsaConfig's fields drifted; update EXPECTED_BALSA_CONFIG_FIELDS in "
        "this test only for a deliberate change"
    )


def test_server_module_surface():
    import repro.server as server

    for name in server.__all__:
        assert getattr(server, name, None) is not None, (
            f"repro.server.{name} does not resolve"
        )
    import repro.api as api_module

    assert api_module.PlanningServer is server.PlanningServer
    assert api_module.TrafficShadower is server.TrafficShadower
    assert api_module.WireFormatError is server.WireFormatError


def test_every_api_name_resolves():
    for name in api.__all__:
        assert getattr(api, name, None) is not None, f"repro.api.{name} does not resolve"


def test_api_surface_is_frozen():
    assert sorted(api.__all__) == EXPECTED_API, (
        "repro.api.__all__ drifted; update EXPECTED_API in this test only for "
        "deliberate API changes"
    )


def test_api_names_are_unique():
    assert len(api.__all__) == len(set(api.__all__))


def test_package_root_reexports():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, f"repro.{name} does not resolve"


def test_planning_module_surface():
    for name in planning.__all__:
        assert getattr(planning, name, None) is not None, (
            f"repro.planning.{name} does not resolve"
        )
    # The registry front door is importable from the facade too.
    assert api.registry_from_benchmark is planning.registry_from_benchmark
    assert api.PlanRequest is planning.PlanRequest
    assert api.AdmissionError is planning.AdmissionError


def test_service_reexports_admission_error():
    from repro.service import AdmissionError as ServiceAdmissionError

    assert ServiceAdmissionError is planning.AdmissionError


def test_scoring_module_surface():
    import repro.scoring as scoring

    for name in scoring.__all__:
        assert getattr(scoring, name, None) is not None, (
            f"repro.scoring.{name} does not resolve"
        )
    assert api.ScoringBackend is scoring.ScoringBackend
    assert api.ScoringBackendError is scoring.ScoringBackendError
    assert api.ProcessPoolBackend is scoring.ProcessPoolBackend
    # One process transport, a fixed pool: nothing selects or tunes a second.
    assert scoring.BACKEND_NAMES == ("inproc", "process")
    assert [field.name for field in dataclasses.fields(scoring.ScoringBridgeStats)] == [
        "requests", "examples", "forward_batches", "max_batch_examples",
        "versions_published", "worker_crashes", "workers_respawned",
        "workers_current", "queue_depth", "worker_queue_depths", "worker_inflight",
    ]
    assert len(api.__all__) == 56
    # The service re-exports the counters type nested in its metrics report.
    from repro.service import ScoringBridgeStats

    assert ScoringBridgeStats is scoring.ScoringBridgeStats


def test_lifecycle_surface_reexported():
    import repro.lifecycle as lifecycle

    for name in lifecycle.__all__:
        assert getattr(lifecycle, name, None) is not None, (
            f"repro.lifecycle.{name} does not resolve"
        )
    assert api.ModelRegistry is lifecycle.ModelRegistry
    assert api.BackgroundTrainer is lifecycle.BackgroundTrainer
    assert api.ShadowEvaluator is lifecycle.ShadowEvaluator
    assert api.PromotionDecision is lifecycle.PromotionDecision
