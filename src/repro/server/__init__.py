"""The serving gateway: HTTP front door, wire codecs, live shadow scoring.

Stdlib-only (``http.server`` + ``json``) — the gateway adds no dependencies
on top of the in-process stack it fronts:

- :mod:`repro.server.wire` — explicit JSON codecs for the planning envelopes
  (:class:`~repro.planning.envelope.PlanRequest`,
  :class:`~repro.planning.envelope.PlanResult`), service responses, metrics
  reports and promotion decisions, with typed
  :class:`~repro.server.wire.WireFormatError` rejection of malformed input;
- :class:`~repro.server.app.PlanningServer` — ``POST /v1/plan`` /
  ``/v1/plan_many`` through any registered planner, ops endpoints
  (``/v1/metrics``, ``/v1/models``, promote/rollback, ``/healthz``), and
  boot-time restore of the persisted serving chain;
- :class:`~repro.server.shadow_traffic.TrafficShadower` — samples live
  ``/v1/plan`` traffic into a bounded ring buffer, shadow-scores the freshly
  promoted version against its predecessor off the request path, and rolls
  the promotion back automatically when the regression bound breaks on real
  requests;
- :mod:`repro.server.sharding` — :class:`~repro.server.sharding.ShardedGateway`
  pre-forks N gateway workers over one shared listening port (``SO_REUSEPORT``
  with an inherited-fd fallback) under a health-checking, respawning
  supervisor, with :class:`~repro.server.sharding.OpsBroadcastServer` /
  :class:`~repro.server.sharding.OpsChannelClient` keeping promote/rollback
  coherent across all workers.  The cross-process plan-cache tier the
  supervisor owns (:class:`~repro.service.shared_tier.PlanCacheServer` /
  :class:`~repro.service.shared_tier.SharedCacheClient`) lives in
  :mod:`repro.service.shared_tier`, and every channel's sockets and framing
  in :mod:`repro.ipc`.
"""

from repro.server.app import DEFAULT_PLANNER, PlanningServer
from repro.server.shadow_traffic import ShadowTrafficStats, TrafficShadower
from repro.server.sharding import (
    OpsBroadcastServer,
    OpsChannelClient,
    ShardedGateway,
    WorkerSpec,
)
from repro.server.wire import (
    WireFormatError,
    plan_from_json_dict,
    plan_request_from_json_dict,
    plan_request_to_json_dict,
    plan_result_from_json_dict,
    plan_result_to_json_dict,
    plan_to_json_dict,
    promotion_decision_to_json_dict,
    query_from_json_dict,
    query_to_json_dict,
    service_metrics_to_json_dict,
    service_response_to_json_dict,
)
from repro.service.shared_tier import PlanCacheServer, SharedCacheClient

__all__ = [
    "DEFAULT_PLANNER",
    "OpsBroadcastServer",
    "OpsChannelClient",
    "PlanCacheServer",
    "PlanningServer",
    "ShardedGateway",
    "ShadowTrafficStats",
    "SharedCacheClient",
    "TrafficShadower",
    "WireFormatError",
    "WorkerSpec",
    "plan_from_json_dict",
    "plan_request_from_json_dict",
    "plan_request_to_json_dict",
    "plan_result_from_json_dict",
    "plan_result_to_json_dict",
    "plan_to_json_dict",
    "promotion_decision_to_json_dict",
    "query_from_json_dict",
    "query_to_json_dict",
    "service_metrics_to_json_dict",
    "service_response_to_json_dict",
]
