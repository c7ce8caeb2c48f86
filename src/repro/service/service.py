"""The planner service: cache-aware planning for any planner.

``PlannerService`` is the front door for planning traffic.  It serves the
uniform :class:`~repro.planning.envelope.PlanRequest` /
:class:`~repro.planning.envelope.PlanResult` envelopes and can sit in front
of *any* :class:`~repro.planning.protocol.Planner` — the value-network beam
search (the historical default), a classical expert from the registry, or a
custom backend.  Each admitted request passes through three layers:

1. the cross-query :class:`~repro.service.cache.ServicePlanCache` — a
   repeated query under an unchanged planner version returns its memoised
   top-k plans without searching;
2. single-flight deduplication — identical queries already being planned by
   another caller's thread wait for that search instead of duplicating it;
3. the planner itself, run on the calling thread (the gateway calls
   :meth:`PlannerService.plan` from one thread per connection; a planner
   that does not declare ``thread_safe`` plans one request at a time), its
   value-network scoring routed through a pluggable
   :class:`~repro.scoring.protocol.ScoringBackend`: in-process (the default:
   forward passes on the planning thread, serialised by the network's own
   lock) or a process pool (scorer processes loading published model
   snapshots).  A process pool that fails repeatedly is
   abandoned for in-process scoring after ``max_backend_failures`` typed
   errors.

Admission control guards the front door: requests whose planning budget has
already expired, and requests beyond the ``max_pending`` capacity, are
rejected with a typed :class:`~repro.planning.envelope.AdmissionError`.
Admitted deadlines are enforced — the remaining budget is handed to the
planner, and budget-aware planners (beam search) cut off mid-search.

Every request is timed (queue wait, planning, end-to-end) and counted, as
it finishes, into the service's own
:class:`~repro.telemetry.metrics.MetricsRegistry` (:attr:`PlannerService.telemetry`):
request counters, per-search ``states_expanded`` / ``plans_scored`` and
three latency histograms.  :meth:`PlannerService.metrics` reads the
:class:`~repro.service.metrics.ServiceMetrics` report from those
instruments; the gateway's ``/metrics`` exports the same registry.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import nullcontext
from dataclasses import dataclass, fields as dataclass_fields, replace
from functools import partial
from typing import Callable, Hashable, Iterable, Union

from repro.model.value_network import StateDictMismatchError, ValueNetwork
from repro.planning.adapters import BeamPlanner
from repro.planning.envelope import AdmissionError, PlanRequest, PlanResult
from repro.planning.protocol import Planner, planner_version
from repro.plans.nodes import PlanNode
from repro.scoring import (
    InProcessBackend,
    ScoringBackend,
    ScoringBackendError,
    make_scoring_backend,
)
from repro.search.beam import BeamSearchPlanner
from repro.service.cache import CacheKey, ServicePlanCache
from repro.scoring.protocol import ScoringBridgeStats
from repro.service.metrics import RequestStats, ServiceMetrics
from repro.sql.query import Query
from repro.telemetry.metrics import MetricsRegistry, gauge_entries
from repro.telemetry.trace import span as trace_span

#: What the request-facing methods accept: a bare query (wrapped into a
#: default envelope) or a full request.
RequestLike = Union[Query, PlanRequest]


@dataclass
class ServiceResponse(PlanResult):
    """What the service returns for one planning request.

    A :class:`~repro.planning.envelope.PlanResult` subtype: cache hits,
    single-flight joins and fresh searches all return the identical shape,
    extended with the planned query and per-request service stats.

    The inherited envelope fields (``planning_seconds``, ``states_expanded``,
    ``plans_scored``) describe the search that *produced the plans* — for a
    cache hit or coalesced join, that is the original memoised/leader search.
    Per-request charges live in ``stats``: ``stats.planning_seconds`` is 0 for
    hits and joins, so summing ``stats`` across responses never double-counts
    shared work.
    """

    query: Query | None = None
    stats: RequestStats | None = None

    #: The result this response's envelope fields were copied from (set by
    #: the service; unannotated, so not a dataclass field).  The gateway
    #: encodes a reply through it, so every response for one cached result
    #: shares that result's rendering; nothing is encoded until then.
    _origin = None

    @property
    def result(self) -> PlanResult:
        """Backwards-compatible view of the planner output (now ``self``)."""
        return self

    @property
    def cache_hit(self) -> bool:
        """Whether the plan cache answered this request."""
        return self.stats.cache_hit

    def to_json_dict(self) -> dict:
        """JSON-safe dict form: the result plus per-request service stats."""
        from repro.server.wire import service_response_to_json_dict

        return service_response_to_json_dict(self)


#: What ``_finish`` copies from a planner's result into its response.
_PLAN_RESULT_FIELDS = tuple(field.name for field in dataclass_fields(PlanResult))

#: The service's counters: (``ServiceMetrics`` field, series, help).  The
#: instrument counting a field lives at ``self._<field>``.
_COUNTERS = (
    ("cache_hits", "repro_service_cache_hits_total", "Plan-cache hits."),
    ("cache_misses", "repro_service_cache_misses_total", "Requests that ran a planner."),
    ("coalesced_requests", "repro_service_coalesced_total",
     "Requests deduplicated onto an in-flight search."),
    ("rejected_requests", "repro_service_rejected_total", "Requests refused admission."),
    ("deadline_exceeded_requests", "repro_service_deadline_exceeded_total",
     "Served requests whose search was budget-cut."),
    ("swaps", "repro_service_swaps_total", "Model hot swaps."),
    ("promotions_rejected", "repro_service_promotions_rejected_total",
     "Candidates the shadow gate refused."),
    ("warmed_entries", "repro_service_warmed_entries_total",
     "Cache entries repopulated by warming."),
    ("scoring_backend_failures", "repro_scoring_backend_failures_total",
     "Scoring submits failing with a typed error."),
    ("scoring_fallbacks", "repro_scoring_fallbacks_total",
     "Services abandoning their backend for in-process scoring."),
    ("total_states_expanded", "repro_service_states_expanded_total",
     "Search states expanded."),
    ("total_plans_scored", "repro_service_plans_scored_total", "Candidate plans scored."),
)

#: Totals a latency histogram already counts, exported as counters too:
#: (``ServiceMetrics`` field, series, help, histogram attribute, its part).
_HISTOGRAM_TOTALS = (
    ("requests", "repro_service_requests_total", "Requests served.",
     "_service_seconds", "count"),
    ("total_queue_wait_seconds", "repro_service_queue_wait_seconds_total",
     "Summed queue wait.", "_queue_wait_seconds", "sum"),
    ("total_planning_seconds", "repro_service_planning_seconds_total",
     "Summed planner time.", "_planning_seconds", "sum"),
    ("total_service_seconds", "repro_service_service_seconds_total",
     "Summed end-to-end service time.", "_service_seconds", "sum"),
)

#: The scoring backend's numbers, read from its stats at snapshot time:
#: (series, help, ``ScoringBridgeStats`` field, gauge aggregation or None
#: for a counter).
_SCORING_SERIES = (
    ("repro_scoring_requests_total", "Scoring requests from beam searches.",
     "requests", None),
    ("repro_scoring_examples_total", "(query, plan) pairs scored.", "examples", None),
    ("repro_scoring_forward_batches_total", "Value-network forward passes run.",
     "forward_batches", None),
    ("repro_scoring_versions_published_total",
     "Model versions published to scorers.", "versions_published", None),
    ("repro_scoring_worker_crashes_total", "Scorer processes dead mid-service.",
     "worker_crashes", None),
    ("repro_scoring_workers_respawned_total", "Crashed scorers replaced.",
     "workers_respawned", None),
    ("repro_scoring_max_batch_examples", "Largest forward-pass batch.",
     "max_batch_examples", "max"),
    ("repro_scoring_workers", "Routable scorer processes.", "workers_current", "sum"),
    ("repro_scoring_queue_depth", "Scoring requests in flight.", "queue_depth", "sum"),
)

#: Point-in-time scoring fields an abandoned backend's history does not add to.
_SCORING_GAUGES = frozenset(
    {"workers_current", "queue_depth", "worker_queue_depths", "worker_inflight"}
)


def _knobs_key(request: PlanRequest) -> tuple:
    """Canonical hashable form of the request's knobs for cache/flight keys.

    Knob-sensitive requests (e.g. Bao's ``explore``) must not be served
    another knob combination's memoised result.
    """
    if not request.knobs:
        return ()
    return tuple(sorted((str(name), repr(value)) for name, value in request.knobs.items()))


class _BudgetDrained(Exception):
    """Internal: an admitted request's budget ran out before the backend ran."""


class _NetworkHolder:
    """Atomic holder for the serving value network.

    The service resolves the serving network through this holder so a hot
    swap is one reference assignment: requests admitted before the swap keep
    the network they resolved (pinned per request), requests admitted after
    resolve the replacement.  Until the first swap the holder defers to the
    caller-supplied provider (e.g. an agent's current ``value_network``).
    """

    __slots__ = ("provider", "override")

    def __init__(self, provider: Callable[[], ValueNetwork | None]):
        self.provider = provider
        self.override: ValueNetwork | None = None

    def get(self) -> ValueNetwork | None:
        override = self.override
        return override if override is not None else self.provider()


class _Flight:
    """Completion signal for an in-flight search other requests can join."""

    __slots__ = ("done", "result", "error")

    def __init__(self):
        self.done = threading.Event()
        self.result: PlanResult | None = None
        self.error: BaseException | None = None


class PlannerService:
    """A traffic-serving planning layer over one planner backend.

    Every request plans on the thread that asks: :meth:`plan` for one,
    :meth:`plan_many` for an ordered batch.  Concurrency comes from the
    caller (the gateway's one thread per connection); the service keeps it
    safe with single-flight, exact admission accounting and, for planners
    that do not declare ``thread_safe``, one search at a time.

    Args:
        network: Value network guiding beam search (the historical backend).
            Mutually exclusive with ``network_provider`` and with a protocol
            ``planner``.
        network_provider: Zero-argument callable returning the current
            network; use this when the caller may swap the network object
            (e.g. an agent retraining from scratch).
        planner: Either a :class:`BeamSearchPlanner` configuring the beam
            backend (requires a network), or any
            :class:`~repro.planning.protocol.Planner` — e.g. a registry entry
            such as ``registry.get("postgres")`` — served through the
            same cache/dedup/metrics path.
        max_workers: Scorer processes a ``scoring_backend="process"`` starts
            (ignored by every other backend).
        cache_capacity: Plan-cache capacity in entries (0 disables caching).
        scoring_backend: How beam-search scoring executes: ``"inproc"``
            (forward passes on the planning thread — the default, which
            ``None`` selects with the beam backend), ``"process"`` (a fixed
            pool of ``max_workers`` scorer processes loading published
            snapshots — slower than in-process at every worker count
            measured, since a submit featurises and packs whole trees on
            the planning thread and the scorer runs the full forward), or a
            ready
            :class:`~repro.scoring.protocol.ScoringBackend` instance
            (closed with the service).
        max_backend_failures: Consecutive
            :class:`~repro.scoring.protocol.ScoringBackendError` failures
            tolerated before the service abandons the configured backend and
            falls back to in-process scoring (``None`` disables the
            fallback).  The failing requests still surface their typed error.
        max_batch_size: Forward-pass size cap for the scoring backend.
        max_pending: Admission-control capacity: maximum requests admitted
            but not yet completed.  Further requests are rejected with
            :class:`AdmissionError` (``None`` disables the cap).
        default_k: Plans requested when a bare :class:`Query` is submitted
            (defaults to the beam planner's ``top_k``, or 1 for protocol
            backends).
    """

    def __init__(
        self,
        network: ValueNetwork | None = None,
        *,
        network_provider: Callable[[], ValueNetwork | None] | None = None,
        planner: BeamSearchPlanner | Planner | None = None,
        max_workers: int = 4,
        cache_capacity: int = 4096,
        scoring_backend: str | ScoringBackend | None = None,
        max_backend_failures: int | None = 3,
        max_batch_size: int = 512,
        max_pending: int | None = None,
        default_k: int | None = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_pending is not None and max_pending < 0:
            raise ValueError("max_pending must be >= 0 (or None to disable)")

        beam_mode = network is not None or network_provider is not None
        self._scoring: ScoringBackend | None = None
        self._owned_backends: list[ScoringBackend] = []
        self._max_batch_size = max_batch_size
        self.max_backend_failures = max_backend_failures
        self._backend_failures = 0
        self._fallen_back = False
        # Counters of a backend abandoned by the fallback, folded into
        # metrics() so its history survives the switch.
        self._retired_scoring = None
        # Guards the serving-network holder: a request's key computation and
        # a concurrent hot swap never interleave mid-resolution.
        self._swap_lock = threading.Lock()
        self._beam_mode = beam_mode
        self._holder: _NetworkHolder | None = None
        if beam_mode:
            if (network is None) == (network_provider is None):
                raise ValueError("provide exactly one of network / network_provider")
            if planner is not None and not isinstance(planner, BeamSearchPlanner):
                raise ValueError(
                    "with a network the planner must be a BeamSearchPlanner; "
                    "to serve a protocol planner, pass it alone"
                )
            self._holder = _NetworkHolder(network_provider or (lambda: network))
            self.network_provider = self._holder.get
            self.planner: BeamSearchPlanner | Planner = planner or BeamSearchPlanner()
            if scoring_backend is None:
                scoring_backend = "inproc"
            if isinstance(scoring_backend, str):
                scoring_backend = make_scoring_backend(
                    scoring_backend,
                    self.network_provider,
                    num_workers=max_workers,
                    max_batch_size=max_batch_size,
                )
            self._scoring = scoring_backend
            self._owned_backends.append(self._scoring)
            # Every request plans on a backend pinned to the network it
            # resolved (_pinned_backend); there is no shared beam backend.
            self.backend: Planner | None = None
            thread_safe = BeamPlanner.thread_safe
            self._default_k = default_k if default_k is not None else self.planner.top_k
        else:
            if planner is None:
                raise ValueError(
                    "provide a network/network_provider (beam backend) or a planner "
                    "implementing the Planner protocol"
                )
            if scoring_backend is not None:
                raise ValueError(
                    "scoring_backend requires the beam backend; protocol "
                    "planners score inside their own plan()"
                )
            if isinstance(planner, BeamSearchPlanner):
                raise ValueError("a BeamSearchPlanner backend needs a network")
            if not callable(getattr(planner, "plan", None)):
                raise TypeError(f"planner {planner!r} does not implement the Planner protocol")
            self.network_provider = lambda: None
            self.planner = planner
            self.backend = planner
            thread_safe = bool(getattr(planner, "thread_safe", False))
            self._default_k = default_k if default_k is not None else 1

        self.max_pending = max_pending
        self.cache = ServicePlanCache(cache_capacity)
        self._flights: dict[CacheKey, _Flight] = {}
        self._flight_lock = threading.Lock()
        self._register_metrics()
        # Planners that do not declare themselves thread-safe are planned one
        # at a time, whoever calls; caching and dedup still run concurrently.
        self._backend_lock = nullcontext() if thread_safe else threading.Lock()
        self._closed = False
        self._pending = 0

    # ------------------------------------------------------------------ #
    # Request API
    # ------------------------------------------------------------------ #
    def plan(self, request: RequestLike) -> ServiceResponse:
        """Plan one request synchronously on the calling thread."""
        envelope = self._as_request(request)
        self._admit(envelope)
        return self._handle(envelope, time.perf_counter())

    def plan_many(self, requests: Iterable[RequestLike]) -> list[ServiceResponse]:
        """Plan several requests one after another, preserving input order.

        A request the service refuses (:class:`AdmissionError`) stops the
        batch; the ones before it stay planned and cached.
        """
        return [self.plan(request) for request in requests]

    # ------------------------------------------------------------------ #
    # Model lifecycle: hot swap and cache warming
    # ------------------------------------------------------------------ #
    def swap_network(self, network: ValueNetwork) -> Hashable:
        """Atomically replace the serving value network (zero-downtime).

        In-flight requests finish on the network they resolved at admission
        (each request pins its network and version together); requests
        admitted after this call plan with ``network``.  Cache keys embed the
        network's version key, so entries roll over naturally — follow up
        with :meth:`warm_cache` to put the known workload back on the warm
        path.

        Args:
            network: The replacement network.  Must be featurised identically
                to the current serving network.

        Returns:
            The new serving version key.

        Raises:
            RuntimeError: The service fronts a protocol planner (no network).
            StateDictMismatchError: ``network`` featurises a different input
                space than the current serving network.
        """
        self._check_open()
        if self._holder is None:
            raise RuntimeError(
                "swap_network requires the beam backend; protocol planners "
                "have no serving network to swap"
            )
        current = self.network_provider()
        if current is not None and current.featurizer.signature() != (
            network.featurizer.signature()
        ):
            raise StateDictMismatchError(
                "cannot hot-swap a network featurised for a different input "
                f"space: serving {current.featurizer.signature()!r}, "
                f"candidate {network.featurizer.signature()!r}"
            )
        with self._swap_lock:
            self._holder.override = network
        self._swaps.inc()
        return network.version_key()

    def serving_network(self) -> ValueNetwork | None:
        """The network new requests currently resolve (None for protocol mode)."""
        if self._holder is None:
            return None
        with self._swap_lock:
            return self.network_provider()

    def warm_cache(self, requests: Iterable[RequestLike]) -> int:
        """Replan ``requests`` so subsequent traffic hits the plan cache.

        Run immediately after :meth:`swap_network` with the known workload:
        every request that is not already memoised under the new serving
        version plans now (through the normal request path), so
        steady-state traffic stays on the warm path across the swap.

        Returns:
            The number of fresh entries actually memoised (already-warm
            requests are counted as hits, not re-planned; a search whose
            result could not be stored — budget-truncated, or the serving
            version moved again mid-warm — is not counted as warmed).
        """
        envelopes = [self._as_request(request) for request in requests]
        responses = self.plan_many(envelopes)
        warmed = 0
        for envelope, response in zip(envelopes, responses):
            stats = response.stats
            if stats is None or stats.cache_hit or stats.coalesced:
                continue
            key: CacheKey = (
                envelope.query.fingerprint(),
                stats.model_version,
                envelope.k,
                _knobs_key(envelope),
            )
            warmed += int(self.cache.contains(key))
        self._warmed_entries.inc(warmed)
        return warmed

    def record_promotion_rejected(self) -> None:
        """Count a candidate model the shadow gate refused to promote."""
        self._promotions_rejected.inc()

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def scoring_profiles(self) -> list[dict]:
        """Sampling profiles from the scoring backend's processes, if any.

        The in-process backend has no processes to profile and simply
        contributes nothing; the gateway merges whatever comes back into
        ``GET /v1/profile``.
        """
        profiles = getattr(self._scoring, "profiles", None)
        if not callable(profiles):
            return []
        try:
            return list(profiles())
        except Exception:  # noqa: BLE001 - observability must not fail serving
            return []

    def metrics(self) -> ServiceMetrics:
        """Aggregate report over every request handled so far."""
        with self._metrics_lock:
            wall = 0.0
            if self._window_start is not None:
                wall = max(self._window_end - self._window_start, 0.0)
            report = ServiceMetrics(
                **{field: getattr(self, f"_{field}").value for field, _, _ in _COUNTERS},
                **{
                    field: getattr(getattr(self, histogram), part)
                    for field, _, _, histogram, part in _HISTOGRAM_TOTALS
                },
                max_queue_wait_seconds=self._max_queue_wait,
                wall_seconds=wall,
            )
        report.cache = self.cache.stats()
        report.scoring = self._scoring_stats()
        return report

    def _scoring_stats(self) -> ScoringBridgeStats:
        """The scoring backend's counters (zeros without a backend).

        A backend abandoned by the fallback keeps counting in them: its
        totals add, the max-batch watermark maxes, and point-in-time gauges
        stay the live backend's.
        """
        if self._scoring is None:
            return ScoringBridgeStats()
        stats = self._scoring.stats()
        retired = self._retired_scoring
        if retired is not None:
            for field in dataclass_fields(stats):
                if field.name in _SCORING_GAUGES:
                    continue
                merge = max if field.name == "max_batch_examples" else (
                    lambda a, b: a + b
                )
                setattr(
                    stats,
                    field.name,
                    merge(getattr(stats, field.name), getattr(retired, field.name)),
                )
        return stats

    def reset_metrics(self) -> None:
        """Zero the request counters, latency histograms and throughput
        window (the cache's and the scoring backend's own counters stay)."""
        with self._metrics_lock:
            self.telemetry.reset()
            self._max_queue_wait = 0.0
            self._window_start = self._window_end = None

    def _register_metrics(self) -> None:
        """Build :attr:`telemetry`: the instruments ``_finish`` and the
        admission path count into, and readers for the cache and scoring
        backend.  Readers hold the service weakly: it owns the registry."""
        registry = self.telemetry = MetricsRegistry()
        #: One lock books a request, its admission slot and the throughput
        #: window; the instruments re-enter it.
        self._metrics_lock = registry.lock
        self._max_queue_wait = 0.0
        self._window_start: float | None = None
        self._window_end: float | None = None
        counter = registry.counter
        for field, name, help_text in _COUNTERS:
            setattr(self, f"_{field}", counter(name, help_text))
        self._service_seconds = registry.histogram(
            "repro_request_service_seconds",
            "End-to-end time inside the service per request.",
        )
        self._planning_seconds = registry.histogram(
            "repro_request_planning_seconds",
            "Planner time per cache-missing request.",
        )
        self._queue_wait_seconds = registry.histogram(
            "repro_request_queue_wait_seconds", "Queue wait per request."
        )
        for field, name, help_text, histogram, part in _HISTOGRAM_TOTALS:
            counter(name, help_text).set_function(
                partial(getattr, getattr(self, histogram), part)
            )

        me = weakref.ref(self)
        registry.gauge(
            "repro_service_pending_requests", "Requests admitted but not completed."
        ).set_function(lambda: me()._pending)
        # ``cache`` is read when the view is: callers may replace it.
        registry.gauge(
            "repro_service_cache_size", "Local plan-cache entries."
        ).set_function(lambda: me().cache.stats().size)
        counter(
            "repro_service_cache_evictions_total", "Local plan-cache evictions."
        ).set_function(lambda: me().cache.stats().evictions)

        def hit_rate() -> float:
            requests = me()._service_seconds.count
            return me()._cache_hits.value / requests if requests else 0.0

        registry.gauge(
            "repro_service_cache_hit_rate",
            "Fraction of requests answered from cache.",
            aggregation="mean",
        ).set_function(hit_rate)
        for name, help_text, field, aggregation in _SCORING_SERIES:
            instrument = (
                counter(name, help_text)
                if aggregation is None
                else registry.gauge(name, help_text, aggregation=aggregation)
            )
            instrument.set_function(
                lambda field=field: getattr(me()._scoring_stats(), field)
            )

        def per_worker() -> list[dict]:
            stats = me()._scoring_stats()
            entries = []
            for name, help_text, values in (
                ("repro_scoring_worker_queue_depth", "In-flight requests per scorer.",
                 stats.worker_queue_depths),
                ("repro_scoring_worker_inflight", "Batches being scored per scorer.",
                 stats.worker_inflight),
            ):
                for worker, value in enumerate(values):
                    entries += gauge_entries(name, help_text, value, {"worker": str(worker)})
            return entries

        registry.add_reader(per_worker)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the scoring backends; later requests raise ``RuntimeError``."""
        if self._closed:
            return
        self._closed = True
        for backend in self._owned_backends:
            backend.close()

    def __enter__(self) -> "PlannerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Admission control
    # ------------------------------------------------------------------ #
    def _as_request(self, request: RequestLike) -> PlanRequest:
        if isinstance(request, PlanRequest):
            return request
        if isinstance(request, Query):
            return PlanRequest(query=request, k=self._default_k)
        raise TypeError(
            f"expected a Query or PlanRequest, got {type(request).__name__}"
        )

    def _admit(self, request: PlanRequest) -> None:
        """Admit ``request`` or raise :class:`AdmissionError`."""
        with trace_span("admission", query=request.query.name):
            self._check_open()
            if request.expired:
                self._rejected_requests.inc()
                raise AdmissionError(
                    f"request for {request.query.name!r} arrived with an "
                    f"already-expired deadline ({request.deadline_seconds}s)",
                    reason="deadline_expired",
                )
            with self._metrics_lock:
                if (
                    self.max_pending is not None
                    and self._pending >= self.max_pending
                ):
                    self._rejected_requests.inc()
                    raise AdmissionError(
                        f"service over capacity: {self._pending} pending "
                        f"requests >= max_pending={self.max_pending}",
                        reason="over_capacity",
                    )
                self._pending += 1

    @property
    def pending_requests(self) -> int:
        """Requests admitted but not yet completed."""
        with self._metrics_lock:
            return self._pending

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("planner service is closed")

    def _handle(self, request: PlanRequest, submitted_at: float) -> ServiceResponse:
        try:
            return self._serve(request, submitted_at)
        except BaseException:
            # An answered request released its admission slot in _finish,
            # the last thing _serve does; this one was not answered.
            with self._metrics_lock:
                self._pending -= 1
            raise

    def _serve(self, request: PlanRequest, submitted_at: float) -> ServiceResponse:
        started = time.perf_counter()
        queue_wait = max(started - submitted_at, 0.0)
        # Resolve the serving backend ONCE per request: the cache-key version
        # and the network the request plans with come from the same snapshot,
        # so a hot swap (or an in-place retrain bumping the version) that
        # interleaves with this request can never produce an entry keyed to
        # one version but scored by another.
        pinned = self._resolve_network()
        version = (
            pinned.version_key() if pinned is not None else planner_version(self.backend)
        )
        key: CacheKey = (
            request.query.fingerprint(),
            version,
            request.k,
            _knobs_key(request),
        )
        deadline: float | None = None
        if request.deadline_seconds is not None:
            deadline = submitted_at + request.deadline_seconds

        while True:
            # The cache is consulted even when the budget has drained: a
            # memoised hit costs nothing, so it still beats an empty
            # truncated answer.
            with trace_span("cache.lookup") as lookup_span:
                cached = self.cache.lookup(key)
                if lookup_span is not None:
                    lookup_span.annotate(hit=cached is not None)
            if cached is not None:
                return self._finish(
                    request, cached, key, submitted_at, started,
                    cache_hit=True, coalesced=False, planning_seconds=0.0,
                    queue_wait=queue_wait,
                )
            if deadline is not None and time.perf_counter() >= deadline:
                # Admitted, but the budget drained before planning could
                # start: answer with an empty budget-truncated result (the
                # same shape a mid-search cutoff produces) rather than
                # failing the request.
                return self._finish(
                    request, self._truncated_result(), key, submitted_at, started,
                    cache_hit=False, coalesced=False, planning_seconds=0.0,
                    queue_wait=queue_wait, expired=True,
                )

            flight, leader = self._join_flight(key)
            if leader:
                break
            remaining = None if deadline is None else deadline - time.perf_counter()
            if not flight.done.wait(timeout=remaining):
                # This request's own budget ran out while riding the leader's
                # search; answer with an empty budget-truncated result rather
                # than blocking past the enforced deadline.
                return self._finish(
                    request, self._truncated_result(), key, submitted_at, started,
                    cache_hit=False, coalesced=False, planning_seconds=0.0,
                    queue_wait=queue_wait, expired=True,
                )
            if flight.error is not None:
                raise flight.error
            if flight.result.deadline_exceeded or not flight.result.cacheable:
                # The leader's result must not be shared: it was either cut
                # short by *its* budget, or it is a stochastic draw the
                # planner marked non-replayable.  Retry — the cache was
                # deliberately not populated, so this request plans afresh.
                continue
            return self._finish(
                request, flight.result, key, submitted_at, started,
                cache_hit=False, coalesced=True, planning_seconds=0.0,
                queue_wait=queue_wait,
            )

        ran_backend = True
        try:
            try:
                with trace_span("search"):
                    result = self._backend_plan(request, deadline, pinned)
            except _BudgetDrained:
                result, ran_backend = self._truncated_result(), False
            except AdmissionError as error:
                # A nested serving backend (e.g. an agent's own service) may
                # re-run admission on the drained remaining budget; admitted
                # requests still get a truncated response, never a rejection.
                if error.reason != "deadline_expired":
                    raise
                result, ran_backend = self._truncated_result(), False
            # Budget-truncated results are valid responses but poor cache
            # entries (an unconstrained request must not inherit them), and
            # stochastic planners mark their draws non-cacheable.  The version
            # recheck closes the stale-cache window: if the serving version
            # moved while this search ran (hot swap, or an in-place weight
            # mutation + bump_version), the entry's provenance is ambiguous
            # and it must not be memoised — a later request whose key matches
            # ours could otherwise be served plans scored by other weights.
            if (
                result.cacheable
                and not result.deadline_exceeded
                and self._version_current(version)
            ):
                self.cache.store(key, result)
            flight.result = result
        except BaseException as error:
            flight.error = error
            raise
        finally:
            # Retire the flight *before* waking followers: a woken follower
            # that retries (non-shareable result) must start a fresh flight,
            # not rejoin this completed one in a busy loop.
            with self._flight_lock:
                self._flights.pop(key, None)
            flight.done.set()
        return self._finish(
            request, result, key, submitted_at, started,
            cache_hit=False, coalesced=False,
            planning_seconds=result.planning_seconds, queue_wait=queue_wait,
            expired=not ran_backend,
        )

    def _backend_plan(
        self,
        request: PlanRequest,
        deadline: float | None,
        pinned: ValueNetwork | None = None,
    ) -> PlanResult:
        """Run the backend with the *remaining* planning budget.

        ``pinned`` is the network the request resolved at key-computation
        time; beam-mode requests plan against it (not the live provider), so
        in-flight searches finish on their admitted version across a swap.
        The budget is read once the backend lock is held: time spent waiting
        behind another search is spent budget.
        """
        backend = self.backend if pinned is None else self._pinned_backend(pinned)
        with self._backend_lock:
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise _BudgetDrained()
                request = replace(request, deadline_seconds=remaining)
            return backend.plan(request)

    def _resolve_network(self) -> ValueNetwork | None:
        """The serving network for one request (None in protocol mode).

        Resolution happens under the swap lock (via :meth:`serving_network`)
        so a request never observes a half-applied swap; beam-mode requests
        without a network yet fail the same way the adapter would.
        """
        if not self._beam_mode:
            return None
        network = self.serving_network()
        if network is None:
            raise RuntimeError("planner service has no value network yet")
        return network

    def _version_current(self, version: object) -> bool:
        """Whether the serving backend still reports ``version``."""
        try:
            if self._beam_mode:
                current = self.serving_network()
                return current is not None and current.version_key() == version
            return planner_version(self.backend) == version
        except RuntimeError:
            return False

    def _pinned_backend(self, network: ValueNetwork) -> Planner:
        """A beam backend bound to ``network`` for the span of one request.

        Its ``score_fn`` routes through the scoring backend with ``network``
        as the version pin, so a hot swap mid-search never changes what an
        in-flight search scores against, and the process backend ships the
        matching published snapshot to its scorers.
        """
        return BeamPlanner(
            network=network,
            planner=self.planner,
            score_fn=partial(self._score, network=network),
        )

    def _score(self, query: Query, plans: list[PlanNode], network: ValueNetwork):
        """One backend submit, with failure accounting and fallback."""
        backend = self._scoring
        try:
            with trace_span("scoring", plans=len(plans)):
                predictions = backend.submit(query, plans, version=network)
        except ScoringBackendError:
            self._note_backend_failure()
            raise
        if self._backend_failures:
            # A success ends a run of failures; with none to end, no lock (a
            # failure racing this read counts as if it came after it).
            with self._metrics_lock:
                self._backend_failures = 0
        return predictions

    def _note_backend_failure(self) -> None:
        """Count a backend failure; install the in-process fallback at the cap.

        The failing request still surfaces its typed error (its batch is
        lost); requests arriving after the cap score in-process, so a dead
        scorer pool degrades throughput instead of availability.
        """
        with self._metrics_lock:
            self._backend_failures += 1
            self._scoring_backend_failures.inc()
            fall_back = (
                not self._fallen_back
                and self.max_backend_failures is not None
                and self._backend_failures >= self.max_backend_failures
            )
            if fall_back:
                self._fallen_back = True
                self._scoring_fallbacks.inc()
        if fall_back:
            abandoned = self._scoring
            fallback = InProcessBackend(
                self.network_provider, max_batch_size=self._max_batch_size
            )
            self._owned_backends.append(fallback)
            self._scoring = fallback
            # Preserve the abandoned backend's counters in metrics(), then
            # release its resources (scorer processes, spool) off the request
            # path — close() can block on process joins.
            try:
                self._retired_scoring = abandoned.stats()
            except BaseException:
                pass
            threading.Thread(
                target=abandoned.close, name="scoring-backend-reaper", daemon=True
            ).start()

    def _truncated_result(self) -> PlanResult:
        """An empty budget-truncated result (deadline drained before planning)."""
        return PlanResult(
            plans=[], predicted_latencies=[],
            planner_name=(
                BeamPlanner.name if self._beam_mode else getattr(self.backend, "name", "")
            ),
            deadline_exceeded=True, cacheable=False,
        )

    def _join_flight(self, key: CacheKey) -> tuple[_Flight, bool]:
        """Join (or lead) the in-flight search for ``key``."""
        with self._flight_lock:
            flight = self._flights.get(key)
            if flight is not None:
                return flight, False
            flight = _Flight()
            self._flights[key] = flight
            return flight, True

    def _finish(
        self,
        request: PlanRequest,
        result: PlanResult,
        key: CacheKey,
        submitted_at: float,
        started: float,
        cache_hit: bool,
        coalesced: bool,
        planning_seconds: float,
        queue_wait: float,
        expired: bool = False,
    ) -> ServiceResponse:
        completed = time.perf_counter()
        # Search work is charged to the request that ran it; hits, coalesced
        # joins and budget-drained requests (``expired`` — no planner ran)
        # report zero so aggregates never double-count.
        ran_planner = not cache_hit and not coalesced and not expired
        stats = RequestStats(
            query_name=request.query.name,
            cache_hit=cache_hit,
            coalesced=coalesced,
            queue_wait_seconds=queue_wait,
            planning_seconds=planning_seconds,
            service_seconds=completed - submitted_at,
            model_version=key[1],
            planner_name=result.planner_name,
            states_expanded=result.states_expanded if ran_planner else 0,
            plans_scored=result.plans_scored if ran_planner else 0,
            deadline_exceeded=result.deadline_exceeded and not cache_hit,
            priority=request.priority,
        )
        # Copy exactly the PlanResult fields (a nested-service backend may
        # return a full ServiceResponse; its query/stats must not leak), so
        # future envelope fields propagate without touching this site.
        response = ServiceResponse(
            **{name: getattr(result, name) for name in _PLAN_RESULT_FIELDS},
            query=request.query, stats=stats,
        )
        response._origin = result
        # One acquisition books the request into its instruments and
        # releases its admission slot; nothing after it can raise, so
        # _handle never releases it twice.
        service_seconds = stats.service_seconds
        with self._metrics_lock:
            if cache_hit:
                self._cache_hits.inc()
            elif coalesced:
                self._coalesced_requests.inc()
            else:
                if ran_planner:
                    self._cache_misses.inc()
                    self._total_states_expanded.inc(stats.states_expanded)
                    self._total_plans_scored.inc(stats.plans_scored)
                self._planning_seconds.observe(planning_seconds)
            if stats.deadline_exceeded:
                self._deadline_exceeded_requests.inc()
            self._queue_wait_seconds.observe(queue_wait)
            self._service_seconds.observe(service_seconds)
            if queue_wait > self._max_queue_wait:
                self._max_queue_wait = queue_wait
            if self._window_start is None:
                self._window_start, self._window_end = submitted_at, completed
            else:
                self._window_start = min(self._window_start, submitted_at)
                self._window_end = max(self._window_end, completed)
            self._pending -= 1
        return response
