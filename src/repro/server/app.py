"""The serving gateway: an HTTP front door over the in-process stack.

:class:`PlanningServer` turns a :class:`~repro.service.service.PlannerService`
(plus, optionally, a :class:`~repro.lifecycle.manager.ModelLifecycle` and a
:class:`~repro.server.shadow_traffic.TrafficShadower`) into a network
service — stdlib only (``http.server`` + ``json``), no new dependencies.

Endpoints:

- ``POST /v1/plan`` — one planning request (wire-encoded
  :class:`~repro.planning.envelope.PlanRequest`; ``query`` structural or a
  workload name; optional ``planner`` routes to any registered planner, each
  served through its own cache-aware :class:`PlannerService`).
- ``POST /v1/plan_many`` — a batch, planned in order on the request's thread.
- ``GET /v1/metrics`` — per-planner :class:`ServiceMetrics`, gateway HTTP
  counters, and live shadow-scoring stats.
- ``GET /v1/models`` — the registry chain: retained versions, serving
  history, snapshot provenance, and the full promotion-decision audit trail.
- ``POST /v1/models/promote`` / ``POST /v1/models/rollback`` — ask the
  lifecycle to move the serving model (it swaps, moves the registry pointer,
  retires the displaced version's cached plans, warms, and arms or disarms
  its live monitor); a sharded worker then broadcasts the op to its
  siblings, which replay it through their own lifecycles.
- ``GET /healthz`` — liveness plus the serving version.
- ``GET /metrics`` — Prometheus text exposition of the gateway's registry
  merged with its owners' (each planner service's under its ``planner``
  label, the shadower's, the trainer loop's).  Each owner counts into its
  own instruments where the event happens; state and numbers counted
  elsewhere (cache size, alerts, tracer, transports) are readers the
  snapshot calls, so a scrape copies nothing.
- ``GET /v1/traces`` — the recent-request trace ring and the slow-request
  log (span trees across scorer processes and the shared cache).
- ``GET /v1/traces/<trace_id>`` — resolve one trace id (from a JSON log
  line or alert annotation) to its full span tree.
- ``GET /v1/metrics/stream`` — server-sent events: periodic metric samples
  plus lifecycle events (promotions, rollbacks, scorer respawns) and
  ``event: alert`` frames as SLO alerts fire and resolve.
- ``GET /v1/profile`` — merged continuous-profiling flamegraph (this
  process's sampler plus every scorer process's).
- ``GET /v1/alerts`` — the watchtower's SLO burn-rate alert state
  (pending/firing/recently-resolved, objectives, windows).

The gateway never moves the serving model itself: every move goes through
its lifecycle, the one owner of "the registry's serving version is what the
service serves".  That includes the boot-time restore: given a lifecycle
over a persisted registry (typically
``ModelRegistry.load_persisted(persist_dir)``),
:meth:`~repro.lifecycle.manager.ModelLifecycle.resume` swaps the serving
snapshot in before the gateway takes traffic, so a restart serves the last
promoted model instead of whatever network the process constructed.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from typing import TYPE_CHECKING, Iterable

from repro.lifecycle.snapshot import LifecycleError
from repro.model.value_network import StateDictMismatchError
from repro.planning.envelope import AdmissionError, PlanRequest, UnknownPlannerError
from repro.server.handlers import GatewayHTTPServer, GatewayRequestHandler
from repro.server.wire import WireFormatError, plan_request_from_json_dict
from repro.service.service import PlannerService, ServiceResponse
from repro.sql.query import Query
from repro.telemetry.alerts import AlertManager
from repro.telemetry.events import get_event_bus
from repro.telemetry.metrics import (
    Counter,
    MetricsRegistry,
    gauge_entries,
    render_snapshot,
)
from repro.telemetry.profiling import (
    SAMPLING_HZ,
    flamegraph_from_profile,
    get_profiler,
    merge_profiles,
    start_profiler,
    stop_profiler,
)
from repro.telemetry.trace import get_tracer, span as trace_span

if TYPE_CHECKING:
    from repro.experience.loop import OnlineTrainerLoop
    from repro.lifecycle.manager import ModelLifecycle
    from repro.planning.registry import PlannerRegistry
    from repro.server.shadow_traffic import TrafficShadower

#: The ``planner`` field value addressing the gateway's primary service.
DEFAULT_PLANNER = "default"

#: Every routable path; unknown paths share one metrics bucket so a scanner
#: probing random URLs cannot grow the gateway counters without bound.
KNOWN_PATHS = frozenset(
    {
        "/healthz",
        "/v1/plan",
        "/v1/plan_many",
        "/v1/metrics",
        "/v1/models",
        "/v1/models/promote",
        "/v1/models/rollback",
        "/v1/experience",
        "/metrics",
        "/v1/traces",
        "/v1/traces/<trace_id>",
        "/v1/metrics/stream",
        "/v1/profile",
        "/v1/alerts",
    }
)


class PlanningServer:
    """HTTP front door for the serving stack.

    Args:
        service: The primary (usually beam-backend) planner service; the
            gateway never closes it.
        lifecycle: Optional lifecycle (its gate may be absent) whose
            registry backs the ops endpoints (``/v1/models``,
            promote/rollback) and boot-time restore (the registry's serving
            snapshot is resumed at construction,
            :meth:`ModelLifecycle.resume`); every promote and rollback goes
            through it.
        shadower: Optional live-traffic shadower, built over ``lifecycle``;
            ``/v1/plan`` traffic feeds it.
        experience: Optional online-learning loop
            (:class:`~repro.experience.loop.OnlineTrainerLoop`); every served
            plan is recorded into its sink off the hot path, and its metrics
            are exposed at ``GET /v1/experience`` and inside ``/v1/metrics``.
        planner_registry: Optional planner registry; requests naming a
            ``planner`` are served through a per-planner
            :class:`PlannerService` built lazily over these entries (owned —
            and closed — by the gateway).
        queries: Optional named workload; requests may then reference queries
            by name instead of shipping their structure.
        host: Bind address (loopback by default).
        port: Bind port (0 → ephemeral; read :attr:`port` after
            :meth:`start`).
        verbose: Log one line per HTTP request to stderr.
        worker_id: Shard slot when this gateway runs as one worker of a
            :class:`~repro.server.sharding.ShardedGateway`; surfaces in
            ``/healthz`` bodies and as an ``X-Repro-Worker`` response header
            on every reply.  None (the default) for a standalone gateway.
        profile: Run the continuous sampling profiler in this process while
            the gateway is serving (``GET /v1/profile``); the
            ``REPRO_PROFILE=0`` environment kill switch overrides.

    The watchtower, :attr:`alerts`, is an
    :class:`~repro.telemetry.alerts.AlertManager` over the stock SLO
    objectives.  Firing alerts pause online-trainer promotions and tighten
    the traffic shadower's bounds; recovery restores both.
    """

    def __init__(
        self,
        service: PlannerService,
        *,
        lifecycle: "ModelLifecycle | None" = None,
        shadower: "TrafficShadower | None" = None,
        experience: "OnlineTrainerLoop | None" = None,
        planner_registry: "PlannerRegistry | None" = None,
        queries: Iterable[Query] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        worker_id: int | None = None,
        profile: bool = True,
    ):
        self.service = service
        self.worker_id = worker_id
        self.lifecycle = lifecycle
        self.registry = lifecycle.registry if lifecycle is not None else None
        self.shadower = shadower
        self.experience = experience
        #: Sharded-gateway ops channel (set by the worker bootstrap); promote
        #: and rollback publish through it so sibling workers swap too.
        self.ops_channel = None
        self.planner_registry = planner_registry
        self.verbose = verbose
        self._host = host
        self._requested_port = port
        self._queries: dict[str, Query] = {
            query.name: query for query in (queries or [])
        }
        self._extra_services: dict[str, PlannerService] = {}
        self._extra_lock = threading.Lock()
        self._httpd: GatewayHTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._closed = False
        #: The process lifecycle bus — shared, so events emitted deep in the
        #: stack (shadow rollbacks, scorer respawns) reach this gateway's SSE
        #: streams without any wiring.
        self.event_bus = get_event_bus()
        #: Set on close(); open SSE streams drain out within one poll slice.
        self.stopping_streams = threading.Event()
        #: The watchtower: SLO burn-rate alerting + protective actions.
        self.alerts = AlertManager(snapshot_fn=self.telemetry_snapshot)
        self.alerts.add_listener(self._on_alert_change)
        self._profile = profile
        self._profiler_acquired = False
        self._register_metrics()
        restored = lifecycle.resume() if lifecycle is not None else None
        self.restored_serving_version = restored.version if restored else None

    # ------------------------------------------------------------------ #
    # Server lifecycle
    # ------------------------------------------------------------------ #
    def start(
        self, *, reuse_port: bool = False, listen_socket=None
    ) -> "PlanningServer":
        """Bind the listening socket and serve on a background thread.

        Args:
            reuse_port: Bind with ``SO_REUSEPORT`` so sibling worker
                processes can share the port (sharded-gateway mode).
            listen_socket: Adopt this already-listening socket instead of
                binding — the pre-fork inherited-fd fallback on platforms
                without ``SO_REUSEPORT``.
        """
        if self._closed:
            raise RuntimeError("planning server is closed")
        if self._httpd is not None:
            return self
        bound_handler = type(
            "BoundGatewayHandler", (GatewayRequestHandler,), {"gateway": self}
        )
        self._httpd = GatewayHTTPServer(
            (self._host, self._requested_port),
            bound_handler,
            reuse_port=reuse_port,
            listen_socket=listen_socket,
        )
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="gateway-http",
            daemon=True,
        )
        self._serve_thread.start()
        if self._profile and not self._profiler_acquired:
            label = (
                "gateway"
                if self.worker_id is None
                else f"gateway-w{self.worker_id}"
            )
            if start_profiler(process=label) is not None:
                self._profiler_acquired = True
        self.alerts.start()
        return self

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("planning server is not started")
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        """``http://host:port`` of the running server."""
        return f"http://{self._host}:{self.port}"

    def close(self) -> None:
        """Stop the listener and the gateway-owned per-planner services.

        The primary service, registry, lifecycle and shadower belong to the
        caller and are left running.
        """
        if self._closed:
            return
        self._closed = True
        self.stopping_streams.set()
        self.alerts.stop()
        if self._profiler_acquired:
            self._profiler_acquired = False
            stop_profiler()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=2.0)
        with self._extra_lock:
            extra = list(self._extra_services.values())
            self._extra_services.clear()
        for extra_service in extra:
            extra_service.close()

    def __enter__(self) -> "PlanningServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Routing support
    # ------------------------------------------------------------------ #
    def count_http(self, path: str, status: int) -> None:
        """Count one handled HTTP exchange by endpoint and by status."""
        if path not in KNOWN_PATHS:
            path = "<unknown>"
        # Keyed by the label, not the raw path, so unknown paths share one
        # entry.  Two threads racing on a new key store the same handles: the
        # registry gets or creates one counter per label set.
        counters = self._http_counters.get((path, status))
        if counters is None:
            counters = self._http_counters[path, status] = (
                self.telemetry.counter(
                    "repro_http_requests_total",
                    "Handled HTTP exchanges by endpoint.", {"path": path},
                ),
                self.telemetry.counter(
                    "repro_http_responses_total",
                    "HTTP responses by status code.", {"status": str(status)},
                ),
            )
        counters[0].inc()
        counters[1].inc()

    def _register_metrics(self) -> None:
        """The gateway's registry: HTTP counters (:meth:`count_http`) and
        readers of what the gateway does not count itself."""
        registry = self.telemetry = MetricsRegistry()
        #: ``(path label, status)`` → its two counters (:meth:`count_http`).
        self._http_counters: dict[tuple[str, int], tuple[Counter, Counter]] = {}
        registry.counter(
            "repro_traces_recorded_total", "Completed request traces."
        ).set_function(lambda: get_tracer()._recorded)
        alerts = self.alerts
        registry.gauge(
            "repro_alerts_firing", "SLO alerts currently firing."
        ).set_function(lambda: len(alerts.firing()))
        registry.gauge(
            "repro_alerts_pending", "SLO alerts currently pending."
        ).set_function(lambda: len(alerts.pending()))
        # aggregation="min": the fleet merge reports the sickest worker.
        registry.gauge(
            "repro_health_score",
            "Composite gateway health in [0, 1] (1 = no active alerts).",
            aggregation="min",
        ).set_function(self.health_score)

        def profiler_field(name: str):
            profiler = get_profiler()
            return None if profiler is None else getattr(profiler, name)

        registry.counter(
            "repro_profiler_samples_total",
            "Sampling-profiler passes taken in this process.",
        ).set_function(lambda: profiler_field("_samples"))
        registry.gauge(
            "repro_profiler_hz", "Configured profiler sampling rate."
        ).set_function(lambda: None if get_profiler() is None else SAMPLING_HZ)

        def transports() -> list[dict]:
            # Read at snapshot time: the cache may be replaced and the ops
            # channel is attached after construction.
            entries = []
            shared_stats = getattr(self.service.cache, "shared_stats", None)
            if callable(shared_stats):
                entries += gauge_entries(
                    "repro_shared_cache_client",
                    "Shared plan-cache tier, worker-side client.",
                    shared_stats(),
                )
            ops_channel = self.ops_channel
            if ops_channel is not None and hasattr(ops_channel, "stats"):
                entries += gauge_entries(
                    "repro_ops_channel",
                    "Sharded ops-coherence channel (worker side).",
                    ops_channel.stats(),
                )
            return entries

        registry.add_reader(transports)

    def planner_services(self) -> "dict[str, PlannerService]":
        """Every service this gateway answers through, keyed by planner name."""
        with self._extra_lock:
            extra = dict(self._extra_services)
        return {DEFAULT_PLANNER: self.service, **extra}

    def _resolve_query(self, name: str) -> Query:
        """The registered workload query a by-name request refers to.

        Looked up by name on purpose: the gateway's workload is the one place
        a name is the key a client means.  A request carrying a structural
        query body never comes here, and is planned and cached by its
        ``fingerprint()``, so a body reusing a registered name is its own query.
        """
        return self._queries[name]  # KeyError → WireFormatError upstream

    def _service_for(self, planner: object) -> PlannerService:
        """The service answering for ``planner`` (the primary one by default).

        Named planners are served through gateway-owned services built
        lazily over the planner registry — same cache/dedup/metrics path as
        the primary, so ``/v1/metrics`` reports them uniformly.
        """
        if planner is None or planner == DEFAULT_PLANNER:
            return self.service
        if not isinstance(planner, str):
            raise WireFormatError(f"planner: expected a string, got {planner!r}")
        if self.planner_registry is None:
            raise UnknownPlannerError(
                f"gateway has no planner registry; cannot route to {planner!r}"
            )
        with self._extra_lock:
            if self._closed:
                raise RuntimeError("planning server is closed")
            cached = self._extra_services.get(planner)
            if cached is not None:
                return cached
            backend = self.planner_registry.get(planner)  # UnknownPlannerError
            service = PlannerService(
                planner=backend,
                cache_capacity=1024,
                max_pending=self.service.max_pending,
            )
            self._extra_services[planner] = service
            return service

    @staticmethod
    def _admission_status(error: AdmissionError) -> int:
        if error.reason == "over_capacity":
            return 429
        if error.reason == "deadline_expired":
            return 504
        return 503

    def _observe(self, request: PlanRequest) -> None:
        """Feed one foreground request to the shadower (never raises)."""
        if self.shadower is None:
            return
        try:
            self.shadower.observe(request.query)
        except Exception:  # noqa: BLE001 - shadow path must not fail traffic
            pass

    def _record_experience(
        self, request: PlanRequest, response: ServiceResponse
    ) -> None:
        """Feed one served answer to the experience sink (never raises).

        Every returned plan becomes one tuple — the chosen plan plus the
        runners-up, each with its own predicted cost — because the online
        loop learns ranking structure from the alternatives the model itself
        surfaced, not just from its single favourite.
        """
        if self.experience is None or not response.plans:
            return
        try:
            with trace_span("experience.record", plans=len(response.plans)):
                model_version = (
                    response.stats.model_version
                    if response.stats is not None
                    else None
                )
                for plan, predicted in zip(
                    response.plans, response.predicted_latencies
                ):
                    self.experience.observe(
                        request.query,
                        plan,
                        predicted,
                        planner_id=response.planner_name or DEFAULT_PLANNER,
                        model_version=model_version,
                    )
        except Exception:  # noqa: BLE001 - learning must not fail traffic
            pass

    @staticmethod
    def _response_status(response: ServiceResponse) -> int:
        """504 for a budget-drained empty answer, 200 otherwise."""
        return 504 if (response.deadline_exceeded and not response.plans) else 200

    # ------------------------------------------------------------------ #
    # Routes: planning
    # ------------------------------------------------------------------ #
    def plan_response(self, payload: object) -> "tuple[int, ServiceResponse | dict]":
        """Serve ``POST /v1/plan``: the status and the service's response
        (an error body, as a dict, when there is none).

        The HTTP handler encodes the response through the renderings its
        cached result already holds (:mod:`repro.server.wire`);
        :meth:`handle_plan` is the same decision with a dict body.
        """
        try:
            if not isinstance(payload, Mapping):
                raise WireFormatError("expected a JSON object")
            service = self._service_for(payload.get("planner"))
            request = plan_request_from_json_dict(
                payload, query_resolver=self._resolve_query
            )
        except WireFormatError as error:
            return 400, {"error": str(error), "kind": "bad_request"}
        except UnknownPlannerError as error:
            return 404, {"error": str(error), "kind": "unknown_planner"}
        try:
            response = service.plan(request)
        except AdmissionError as error:
            return self._admission_status(error), {
                "error": str(error),
                "kind": "admission",
                "reason": error.reason,
            }
        except RuntimeError as error:
            return 503, {"error": str(error), "kind": "unavailable"}
        if service is self.service:
            self._observe(request)
            self._record_experience(request, response)
        return self._response_status(response), response

    def handle_plan(self, payload: object) -> tuple[int, dict]:
        """``POST /v1/plan``."""
        status, answer = self.plan_response(payload)
        return status, answer if isinstance(answer, dict) else answer.to_json_dict()

    def plan_many_responses(
        self, payload: object
    ) -> "tuple[int, list[ServiceResponse] | dict]":
        """Serve ``POST /v1/plan_many``; see :meth:`plan_response`."""
        try:
            if not isinstance(payload, Mapping):
                raise WireFormatError("expected a JSON object")
            entries = payload.get("requests")
            if not isinstance(entries, list):
                raise WireFormatError("requests: expected a JSON array")
            service = self._service_for(payload.get("planner"))
            requests = [
                plan_request_from_json_dict(entry, query_resolver=self._resolve_query)
                for entry in entries
            ]
        except WireFormatError as error:
            return 400, {"error": str(error), "kind": "bad_request"}
        except UnknownPlannerError as error:
            return 404, {"error": str(error), "kind": "unknown_planner"}
        try:
            responses = service.plan_many(requests)
        except AdmissionError as error:
            return self._admission_status(error), {
                "error": str(error),
                "kind": "admission",
                "reason": error.reason,
            }
        except RuntimeError as error:
            return 503, {"error": str(error), "kind": "unavailable"}
        if service is self.service:
            for request, response in zip(requests, responses):
                self._observe(request)
                self._record_experience(request, response)
        return 200, responses

    # ------------------------------------------------------------------ #
    # Routes: ops
    # ------------------------------------------------------------------ #
    def handle_metrics(self) -> tuple[int, dict]:
        """``GET /v1/metrics``."""
        with self._extra_lock:
            extra = dict(self._extra_services)
        planners = {DEFAULT_PLANNER: self.service.metrics().to_json_dict()}
        for name, service in extra.items():
            planners[name] = service.metrics().to_json_dict()
        gateway = {
            "requests_by_endpoint": self._http_counts("repro_http_requests_total", "path"),
            "responses_by_status": self._http_counts("repro_http_responses_total", "status"),
        }
        shadow = self.shadower.stats().to_json_dict() if self.shadower else None
        shared_stats = getattr(self.service.cache, "shared_stats", None)
        shared_cache = shared_stats() if callable(shared_stats) else None
        experience = (
            self.experience.metrics().to_json_dict() if self.experience else None
        )
        return 200, {
            "planners": planners,
            "gateway": gateway,
            "shadow": shadow,
            "shared_cache": shared_cache,
            "experience": experience,
            "worker_id": self.worker_id,
        }

    def _http_counts(self, name: str, label: str) -> dict[str, int]:
        return {
            counter.labels[label]: counter.value
            for counter in self.telemetry.series(name)
        }

    def telemetry_snapshot(self) -> dict:
        """This gateway's snapshot merged with its owners' snapshots.

        Each planner service's series carry its ``planner`` label.  The dict
        sharded workers push to the supervisor's aggregation sink — mergeable
        with :func:`repro.telemetry.metrics.merge_snapshots`.
        """
        metrics = self.telemetry.snapshot()["metrics"]
        for name, service in self.planner_services().items():
            metrics += service.telemetry.snapshot({"planner": name})["metrics"]
        for owner in (self.shadower, self.experience):
            if owner is not None:
                metrics += owner.telemetry.snapshot()["metrics"]
        return {"metrics": metrics}

    def prometheus_text(self) -> str:
        """``GET /metrics`` body: Prometheus text over a fresh snapshot."""
        return render_snapshot(self.telemetry_snapshot())

    def handle_traces(self) -> tuple[int, dict]:
        """``GET /v1/traces`` — recent traces plus the slow-request log."""
        payload = get_tracer().to_json_dict()
        payload["worker_id"] = self.worker_id
        return 200, payload

    def handle_trace_lookup(self, trace_id: str) -> tuple[int, dict]:
        """``GET /v1/traces/<trace_id>`` — resolve one trace id directly."""
        trace = get_tracer().find(trace_id)
        if trace is None:
            return 404, {
                "error": f"trace {trace_id!r} not found (evicted or never recorded)",
                "kind": "unknown_trace",
            }
        return 200, {"trace": trace.to_json_dict(), "worker_id": self.worker_id}

    # ------------------------------------------------------------------ #
    # Routes: the watchtower
    # ------------------------------------------------------------------ #
    def profile_snapshot(self) -> dict:
        """This worker's merged profile: own sampler plus scorer processes.

        The dict sharded workers attach to their telemetry push frames, and
        the single-process body of ``GET /v1/profile``.
        """
        profiles: list[dict] = []
        profiler = get_profiler()
        if profiler is not None:
            profiles.append(profiler.snapshot())
        for service in self.planner_services().values():
            scoring_profiles = getattr(service, "scoring_profiles", None)
            if callable(scoring_profiles):
                profiles.extend(scoring_profiles())
        return merge_profiles(profiles)

    def handle_profile(self) -> tuple[int, dict]:
        """``GET /v1/profile`` — flamegraph-ready merged profile JSON."""
        profile = self.profile_snapshot()
        return 200, {
            "worker_id": self.worker_id,
            "profile": profile,
            "flamegraph": flamegraph_from_profile(profile),
        }

    def handle_alerts(self) -> tuple[int, dict]:
        """``GET /v1/alerts`` — the watchtower's alert state."""
        payload = self.alerts.to_json_dict()
        payload["worker_id"] = self.worker_id
        payload["health_score"] = self.health_score()
        return 200, payload

    def health_score(self) -> float:
        """Composite health in [0, 1]: 1.0 with no active alerts, each
        firing alert costs 0.4 and each pending alert 0.1 (floored at 0)."""
        firing = len(self.alerts.firing())
        pending = len(self.alerts.pending())
        return max(0.0, 1.0 - 0.4 * firing - 0.1 * pending)

    def _on_alert_change(self, manager: "AlertManager") -> None:
        """Protective actions: runs after any alert state transition.

        While any alert is firing, autonomous promotions are paused (the
        loop keeps learning, it just cannot ship) and the traffic
        shadower's regression bounds tighten; full recovery reverses both.
        """
        firing = manager.firing()
        burning = bool(firing)
        if self.experience is not None:
            try:
                self.experience.set_promotions_paused(
                    burning, reason=",".join(firing) if burning else None
                )
            except Exception:  # noqa: BLE001 - actions must not stop alerting
                pass
        if self.shadower is not None:
            try:
                self.shadower.set_degraded(burning)
            except Exception:  # noqa: BLE001 - actions must not stop alerting
                pass

    def stream_sample(self) -> dict:
        """One ``event: metrics`` SSE sample: headline gauges, cheap to emit."""
        metrics = self.service.metrics()
        http_requests = sum(
            self._http_counts("repro_http_requests_total", "path").values()
        )
        return {
            "requests": metrics.requests,
            "cache_hit_rate": round(metrics.hit_rate, 6),
            "pending_requests": self.service.pending_requests,
            "mean_planning_seconds": round(metrics.mean_planning_seconds, 6),
            "http_requests": http_requests,
            "serving_version": (
                self.registry.serving_version if self.registry is not None else None
            ),
            "shadow_armed": self.shadower.armed if self.shadower else False,
            "health_score": self.health_score(),
            "alerts_firing": len(self.alerts.firing()),
            "worker_id": self.worker_id,
        }

    def handle_experience(self) -> tuple[int, dict]:
        """``GET /v1/experience`` — the online-learning loop's own block."""
        if self.experience is None:
            return 503, {
                "error": "gateway has no experience subsystem (start with --learn)",
                "kind": "unavailable",
            }
        return 200, self.experience.metrics().to_json_dict()

    def handle_models(self) -> tuple[int, dict]:
        """``GET /v1/models``."""
        if self.registry is None:
            return 503, {"error": "gateway has no model registry", "kind": "unavailable"}
        registry = self.registry
        # One consistent listing: per-version get() calls would race
        # concurrent retention eviction into a 500.
        snapshots = [
            {
                "version": snapshot.version,
                "source": snapshot.source,
                "parent_version": snapshot.parent_version,
                "tag": snapshot.tag,
                "created_at": snapshot.created_at,
            }
            for snapshot in registry.snapshots()
        ]
        shadow = self.shadower.stats().to_json_dict() if self.shadower else None
        return 200, {
            "serving_version": registry.serving_version,
            "versions": registry.versions(),
            "serving_history": registry.serving_history(),
            "snapshots": snapshots,
            "decisions": [decision.to_json_dict() for decision in registry.decisions()],
            "shadow": shadow,
        }

    def handle_promote(
        self, payload: object, *, propagate: bool = True
    ) -> tuple[int, dict]:
        """``POST /v1/models/promote`` — make a registered version serve.

        This is the ops override: it bypasses the probe-workload gate (the
        lifecycle's ``evaluate_and_apply`` owns that path) but never the
        live-traffic guard — the lifecycle arms its shadower with the
        displaced version, so a bad promotion is rolled back by real
        requests.

        Under the sharded gateway a successful promote is re-broadcast to
        every sibling worker through the supervisor's ops channel (unless
        ``propagate`` is False — the flag replayed broadcasts arrive with,
        so an op is applied exactly once per worker and never echoes).
        """
        if self.lifecycle is None:
            return 503, {"error": "gateway has no model registry", "kind": "unavailable"}
        if not isinstance(payload, Mapping):
            return 400, {"error": "expected {'version': <int>}", "kind": "bad_request"}
        version = payload.get("version")
        if not isinstance(version, int) or isinstance(version, bool):
            return 400, {"error": "version: expected an integer", "kind": "bad_request"}
        try:
            self.registry.get(version)
        except LifecycleError as error:
            return 404, {"error": str(error), "kind": "unknown_version"}
        previous = self.registry.serving_version
        if previous == version:
            # Already serving here, but siblings may not be: still broadcast.
            if propagate:
                self._publish_op({"op": "promote", "version": version})
            return 200, {"serving_version": version, "previous_serving_version": previous}
        try:
            self.lifecycle.promote(version, source="ops")
        except (StateDictMismatchError, LifecycleError) as error:
            return 409, {"error": str(error), "kind": "conflict"}
        except RuntimeError as error:
            return 503, {"error": str(error), "kind": "unavailable"}
        if propagate:
            self._publish_op({"op": "promote", "version": version})
        return 200, {
            "serving_version": version,
            "previous_serving_version": previous,
            "shadow_armed": self.shadower.armed if self.shadower else False,
        }

    def handle_rollback(self, *, propagate: bool = True) -> tuple[int, dict]:
        """``POST /v1/models/rollback`` — revert to the previous version.

        Guarded by the serving version this call read, so the reply names
        the version it really rolled back from.  Like :meth:`handle_promote`,
        a successful rollback is re-broadcast to sibling workers through the
        ops channel when sharded.
        """
        if self.lifecycle is None:
            return 503, {"error": "gateway has no model registry", "kind": "unavailable"}
        rolled_from = self.registry.serving_version
        try:
            snapshot = self.lifecycle.rollback(
                expected_serving=rolled_from, source="ops"
            )
        except (StateDictMismatchError, LifecycleError) as error:
            return 409, {"error": str(error), "kind": "conflict"}
        except RuntimeError as error:
            return 503, {"error": str(error), "kind": "unavailable"}
        if propagate:
            self._publish_op({"op": "rollback"})
        return 200, {
            "serving_version": snapshot.version,
            "rolled_back_from": rolled_from,
        }

    # ------------------------------------------------------------------ #
    # Sharded ops coherence
    # ------------------------------------------------------------------ #
    def _publish_op(self, message: dict) -> None:
        """Best-effort broadcast of an applied ops action to sibling workers."""
        channel = self.ops_channel
        if channel is None:
            return
        try:
            channel.publish(message)
        except Exception:  # noqa: BLE001 - coherence is best-effort, never fatal
            pass

    def apply_ops_message(self, message: object) -> None:
        """Apply a promote/rollback broadcast received from a sibling worker.

        Runs on the ops-channel listener thread; applies the action locally
        with ``propagate=False`` so it is never re-broadcast (the supervisor
        already fans each op out to every *other* worker exactly once).
        Failures are swallowed — a worker that cannot apply an op (e.g. the
        version was evicted locally) keeps serving what it has.
        """
        if not isinstance(message, Mapping):
            return
        op = message.get("op")
        try:
            if op == "promote":
                self.handle_promote(
                    {"version": message.get("version")}, propagate=False
                )
            elif op == "rollback":
                self.handle_rollback(propagate=False)
        except Exception:  # noqa: BLE001 - a bad broadcast must not kill the listener
            pass

    def handle_health(self) -> tuple[int, dict]:
        """``GET /healthz`` — liveness plus the composite health score.

        Always 200 while the process serves (liveness); the body's
        ``health_score``/``status`` carry the watchtower's judgment, which
        the sharded supervisor aggregates fleet-wide (min over workers).
        """
        planners = [DEFAULT_PLANNER]
        if self.planner_registry is not None:
            planners += sorted(self.planner_registry.available())
        score = self.health_score()
        if score >= 0.8:
            status = "ok"
        elif score >= 0.4:
            status = "degraded"
        else:
            status = "unhealthy"
        return 200, {
            "status": status,
            "health_score": score,
            "alerts_firing": self.alerts.firing(),
            "alerts_pending": self.alerts.pending(),
            "worker_id": self.worker_id,
            "pending_requests": self.service.pending_requests,
            "serving_version": (
                self.registry.serving_version if self.registry is not None else None
            ),
            "shadow_armed": self.shadower.armed if self.shadower else False,
            "planners": planners,
        }
