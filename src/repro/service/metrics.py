"""Per-request statistics and the aggregated service report."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scoring.protocol import ScoringBridgeStats
from repro.service.cache import CacheStats


@dataclass
class RequestStats:
    """Timing and cache status of one planning request.

    Attributes:
        query_name: Name of the planned query.
        cache_hit: Whether the plan cache answered the request.
        coalesced: Whether the request piggybacked on an identical in-flight
            request instead of planning on its own (single-flight dedup).
        queue_wait_seconds: Time between admission and the start of serving
            (≈ 0: the request is served on the thread that admitted it).
        planning_seconds: Time spent inside the planner (0 for cache hits).
        service_seconds: Total time inside the service (queue wait included).
        model_version: Version key of the planner/model that served the
            request.
        planner_name: Registry identity of the serving planner.
        states_expanded: Search states expanded for this request (0 for cache
            hits and coalesced joins — the work is charged to the leader).
        plans_scored: Candidate plans scored for this request (same charging
            rule).
        deadline_exceeded: Whether the planner cut its search short because
            the request's planning budget ran out.
        priority: The request's scheduling priority.
    """

    query_name: str
    cache_hit: bool
    coalesced: bool
    queue_wait_seconds: float
    planning_seconds: float
    service_seconds: float
    model_version: object = None
    planner_name: str = ""
    states_expanded: int = 0
    plans_scored: int = 0
    deadline_exceeded: bool = False
    priority: int = 0


@dataclass
class ServiceMetrics:
    """Aggregated report over every request a service has handled.

    Attributes:
        requests: Total requests served.
        cache_hits: Requests answered by the plan cache.
        cache_misses: Requests that ran a planner.
        coalesced_requests: Requests deduplicated onto an in-flight search.
        rejected_requests: Requests refused admission (expired deadline or
            over capacity) with :class:`~repro.planning.envelope.AdmissionError`.
        deadline_exceeded_requests: Served requests whose search was cut short
            by its planning budget.
        swaps: Hot swaps of the serving model (lifecycle promotions and
            rollbacks).
        promotions_rejected: Candidate models the shadow-evaluation gate
            refused to promote.
        warmed_entries: Plan-cache entries populated by cache warming (fresh
            searches run by :meth:`PlannerService.warm_cache`, typically right
            after a hot swap).
        scoring_backend_failures: Scoring-backend submits that failed with a
            typed :class:`~repro.scoring.protocol.ScoringBackendError`.
        scoring_fallbacks: Times the service abandoned its configured scoring
            backend for the in-process fallback (at most 1 per service life).
        total_states_expanded: Summed search-state expansions (fresh searches
            only).
        total_plans_scored: Summed candidate plans scored (fresh searches
            only).
        total_queue_wait_seconds: Summed queue wait across requests.
        max_queue_wait_seconds: Worst observed queue wait.
        total_planning_seconds: Summed planner time (misses only).
        total_service_seconds: Summed end-to-end service time.
        wall_seconds: Wall-clock time between the first submission and the
            last completion since the service started (or was reset).
        cache: Plan-cache counters.
        scoring: Scoring-backend counters (every backend reports them; zeros
            only for a protocol planner, which has no scoring backend).
    """

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    coalesced_requests: int = 0
    rejected_requests: int = 0
    deadline_exceeded_requests: int = 0
    swaps: int = 0
    promotions_rejected: int = 0
    warmed_entries: int = 0
    scoring_backend_failures: int = 0
    scoring_fallbacks: int = 0
    total_states_expanded: int = 0
    total_plans_scored: int = 0
    total_queue_wait_seconds: float = 0.0
    max_queue_wait_seconds: float = 0.0
    total_planning_seconds: float = 0.0
    total_service_seconds: float = 0.0
    wall_seconds: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)
    scoring: ScoringBridgeStats = field(default_factory=ScoringBridgeStats)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered from the cache."""
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def mean_queue_wait_seconds(self) -> float:
        """Average queue wait per request."""
        return self.total_queue_wait_seconds / self.requests if self.requests else 0.0

    @property
    def mean_planning_seconds(self) -> float:
        """Average planner time per cache miss."""
        return self.total_planning_seconds / self.cache_misses if self.cache_misses else 0.0

    @property
    def queries_per_second(self) -> float:
        """Throughput over the observed wall-clock window."""
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_json_dict(self) -> dict:
        """Faithful JSON form (nested cache/scoring counters preserved)."""
        from repro.server.wire import service_metrics_to_json_dict

        return service_metrics_to_json_dict(self)
