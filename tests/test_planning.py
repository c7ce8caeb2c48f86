"""Tests for the unified planning API.

Covers the envelopes (:class:`PlanRequest` validation, :class:`PlanResult`
invariants across all nine registered planners), the registry
(registration/lookup/unknown-name errors), and the service front door
(deadlines, admission control, stats propagation).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.agent.config import BalsaConfig
from repro.baselines.bao import BaoAgent
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.optimizer.quickpick import QuickPickOptimizer, random_plan
from repro.planning import (
    AdmissionError,
    PlannerRegistry,
    PlanRequest,
    PlanResult,
    UnknownPlannerError,
)
from repro.planning.adapters import STANDARD_PLANNERS, registry_from_benchmark
from repro.plans.validation import validate_plan
from repro.scoring import InProcessBackend
from repro.search.beam import BeamSearchPlanner
from repro.service.service import PlannerService, ServiceResponse
from repro.workloads.benchmark import make_job_benchmark
from tests.conftest import PlanCall, wait_until

SMALL_NETWORK = ValueNetworkConfig(
    query_hidden=16, query_embedding=8, tree_channels=(16, 8), head_hidden=8, seed=0
)

#: Tiny agent config for the registry's lazily bootstrapped Neo entry.
TINY_CONFIG = BalsaConfig(
    seed=0,
    num_iterations=0,
    beam_size=3,
    top_k=2,
    enumerate_scan_operators=False,
    retrain_epochs=2,
    update_epochs=1,
    eval_interval=0,
    network=SMALL_NETWORK,
)


@pytest.fixture(scope="module")
def planning_benchmark():
    return make_job_benchmark(
        fact_rows=300, num_queries=10, num_templates=4, test_size=3,
        seed=0, size_range=(3, 5),
    )


@pytest.fixture(scope="module")
def network(planning_benchmark):
    return ValueNetwork(planning_benchmark.featurizer, SMALL_NETWORK)


@pytest.fixture(scope="module")
def registry(planning_benchmark, network):
    """The nine standard planners."""
    return registry_from_benchmark(
        planning_benchmark,
        network=network,
        balsa_config=TINY_CONFIG,
        beam_planner=BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False),
        seed=0,
    )


@pytest.fixture(scope="module")
def queries(planning_benchmark):
    return list(planning_benchmark.train_queries)


def small_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False)


class TestPlanRequestValidation:
    def test_rejects_non_query(self):
        with pytest.raises(TypeError):
            PlanRequest(query="select * from t")

    def test_rejects_bad_k(self, queries):
        with pytest.raises(ValueError):
            PlanRequest(query=queries[0], k=0)
        with pytest.raises(ValueError):
            PlanRequest(query=queries[0], k=1.5)

    def test_rejects_bad_priority(self, queries):
        with pytest.raises(ValueError):
            PlanRequest(query=queries[0], priority="high")

    def test_rejects_bad_knobs(self, queries):
        with pytest.raises(TypeError):
            PlanRequest(query=queries[0], knobs=["explore"])

    def test_rejects_bad_deadline_type(self, queries):
        with pytest.raises(TypeError):
            PlanRequest(query=queries[0], deadline_seconds="soon")
        with pytest.raises(TypeError):  # a bool is not a budget
            PlanRequest(query=queries[0], deadline_seconds=True)

    def test_non_positive_deadline_marks_expired(self, queries):
        # Not a validation error: the front door rejects it with AdmissionError.
        assert PlanRequest(query=queries[0], deadline_seconds=0.0).expired
        assert PlanRequest(query=queries[0], deadline_seconds=-1.0).expired
        assert not PlanRequest(query=queries[0], deadline_seconds=5.0).expired


class TestRegistry:
    def test_register_get_roundtrip(self):
        registry = PlannerRegistry()
        planner = QuickPickOptimizer(seed=1)
        assert registry.register("qp", planner) is planner
        assert registry.get("qp") is planner
        assert "qp" in registry and len(registry) == 1
        assert "nope" not in registry

    def test_duplicate_name_rejected(self):
        registry = PlannerRegistry()
        first = registry.register("qp", QuickPickOptimizer(seed=1))
        with pytest.raises(ValueError, match="already registered"):
            registry.register("qp", QuickPickOptimizer(seed=2))
        assert registry.get("qp") is first

    def test_unknown_name_raises(self):
        registry = PlannerRegistry()
        with pytest.raises(UnknownPlannerError):
            registry.get("nope")
        with pytest.raises(KeyError):  # UnknownPlannerError is a KeyError
            registry.get("nope")

    def test_rejects_non_planner(self):
        registry = PlannerRegistry()
        with pytest.raises(TypeError):
            registry.register("bad", object())
        with pytest.raises(ValueError):
            registry.register("", QuickPickOptimizer())

    def test_available_is_sorted(self):
        registry = PlannerRegistry()
        registry.register("zeta", QuickPickOptimizer(seed=0))
        registry.register("alpha", QuickPickOptimizer(seed=1))
        assert registry.available() == ["alpha", "zeta"]

    def test_benchmark_helper_registers_standard_names(self, registry):
        assert registry.available() == sorted(STANDARD_PLANNERS)


class TestEnvelopeInvariants:
    """Every registered planner answers the same envelope with the same shape."""

    @pytest.mark.parametrize("name", STANDARD_PLANNERS)
    def test_registered_planner_roundtrip(self, name, registry, queries):
        planner = registry.get(name)
        query = queries[0]
        result = planner.plan(PlanRequest(query=query, k=2))
        assert isinstance(result, PlanResult)
        assert 1 <= len(result.plans) <= 2
        assert len(result.predicted_latencies) == len(result.plans)
        assert result.planning_seconds >= 0.0
        assert result.planner_name == name
        assert not result.deadline_exceeded
        for plan in result.plans:
            validate_plan(query, plan)

    def test_single_plan_planners_ignore_large_k(self, registry, queries):
        result = registry.get("postgres").plan(PlanRequest(query=queries[0], k=10))
        assert len(result.plans) == 1

    def test_samplers_honour_k(self, registry, queries):
        result = registry.get("random").plan(PlanRequest(query=queries[0], k=4))
        assert len(result.plans) == 4

    def test_bao_reports_chosen_arm(self, registry, queries):
        result = registry.get("bao").plan(PlanRequest(query=queries[0]))
        assert "arm_index" in result.extra and "hint_set" in result.extra


class TestBeamDeadline:
    def test_deadline_cuts_search_short(self, network, queries):
        planner = BeamSearchPlanner(beam_size=10, top_k=10)
        query = max(queries, key=lambda q: q.num_tables)

        def paced_score(scored_query, plans):
            # Both searches pay the same for scoring, whether or not the
            # network still holds the first one's activations.
            time.sleep(0.002)
            return network.predict(scored_query, plans)

        full = planner.search(query, network, score_fn=paced_score)
        assert full.states_expanded > 1 and not full.deadline_exceeded

        cut = planner.search(
            query, network, score_fn=paced_score,
            deadline=time.perf_counter() + full.planning_seconds * 0.25,
        )
        assert cut.deadline_exceeded
        assert cut.states_expanded < full.states_expanded

    def test_expired_deadline_returns_immediately(self, network, queries):
        planner = BeamSearchPlanner(beam_size=10, top_k=10)
        query = max(queries, key=lambda q: q.num_tables)
        result = planner.search(query, network, deadline=time.perf_counter())
        assert result.deadline_exceeded
        assert result.states_expanded == 0
        with pytest.raises(Exception):
            _ = result.best_plan  # no plans were completed


class _BlockingPlanner:
    """Protocol planner that blocks until released (for capacity tests)."""

    name = "blocking"
    thread_safe = True  # keep concurrent plan() calls for capacity tests

    def __init__(self):
        self.release = threading.Event()
        self.started = 0
        self._lock = threading.Lock()

    def plan(self, request: PlanRequest) -> PlanResult:
        with self._lock:
            self.started += 1
        assert self.release.wait(timeout=10.0)
        plan = random_plan(request.query, 0)
        return PlanResult(
            plans=[plan], predicted_latencies=[float("nan")], planner_name=self.name
        )


class TestServiceAdmission:
    def test_expired_deadline_rejected(self, network, queries):
        with PlannerService(network, planner=small_planner()) as service:
            for budget in (0.0, -1.0):
                with pytest.raises(AdmissionError) as excinfo:
                    service.plan(PlanRequest(query=queries[0], deadline_seconds=budget))
                assert excinfo.value.reason == "deadline_expired"
            assert service.metrics().rejected_requests == 2
            assert service.metrics().requests == 0

    def test_zero_capacity_rejects_everything(self, network, queries):
        with PlannerService(
            network, planner=small_planner(), max_pending=0
        ) as service:
            with pytest.raises(AdmissionError) as excinfo:
                service.plan(queries[0])
            assert excinfo.value.reason == "over_capacity"

    def test_over_capacity_rejected(self, queries):
        planner = _BlockingPlanner()
        service = PlannerService(planner=planner, max_pending=2)
        try:
            calls = [PlanCall(service, queries[0]), PlanCall(service, queries[1])]
            assert wait_until(lambda: planner.started == 2)
            with pytest.raises(AdmissionError) as excinfo:
                service.plan(queries[2])
            assert excinfo.value.reason == "over_capacity"
            planner.release.set()
            for call in calls:
                assert isinstance(call.result(), ServiceResponse)
            assert service.metrics().rejected_requests == 1
            assert service.pending_requests == 0
        finally:
            planner.release.set()
            service.close()

    def test_every_outcome_releases_its_admission_slot_once(self, queries):
        class Flaky:
            name = "flaky"

            def plan(self, request: PlanRequest) -> PlanResult:
                if request.query.name == queries[1].name:
                    raise RuntimeError("planner failed")
                plan = random_plan(request.query, 0)
                return PlanResult(plans=[plan], predicted_latencies=[1.0], planner_name="flaky")

        # One slot: a slot leaked or released twice shows on the next request.
        with PlannerService(planner=Flaky(), max_pending=1) as service:
            for hit in (False, True):
                assert service.plan(queries[0]).cache_hit is hit
                assert service.pending_requests == 0
                with pytest.raises(RuntimeError, match="planner failed"):
                    service.plan(queries[1])
                assert service.pending_requests == 0
                drained = service.plan(PlanRequest(query=queries[2], deadline_seconds=1e-9))
                assert drained.deadline_exceeded
                assert service.pending_requests == 0
            assert service.plan(queries[0]).cache_hit
            assert service.pending_requests == 0
            metrics = service.metrics()
            assert (metrics.requests, metrics.cache_hits, metrics.rejected_requests) == (5, 2, 0)

    def test_mid_search_deadline_truncates_and_skips_cache(self, network, queries):
        query = max(queries, key=lambda q: q.num_tables)
        planner = BeamSearchPlanner(beam_size=10, top_k=10)
        # Far more than a stall before the first deadline check can eat (the
        # scans' submit builds the activation store cold): at 50 ms one slow
        # start expired the request before any state was expanded.
        budget = 0.5

        class StallingBackend(InProcessBackend):
            """Spends the whole budget inside the first expansion's submit, so
            the search meets its deadline however fast scoring is."""

            submits = 0

            def submit(self, query, plans, version=None):
                self.submits += 1
                if self.submits == 2:  # the first scored the scans
                    time.sleep(budget)
                return super().submit(query, plans, version)

        with PlannerService(
            network, planner=planner, scoring_backend=StallingBackend(lambda: network),
        ) as service:
            truncated = service.plan(
                PlanRequest(query=query, k=10, deadline_seconds=budget)
            )
            assert truncated.deadline_exceeded
            assert truncated.stats.deadline_exceeded
            assert truncated.states_expanded == 1
            # Truncated results are not cached: a full-budget request re-plans.
            full = service.plan(PlanRequest(query=query, k=10))
            assert not full.cache_hit
            assert not full.deadline_exceeded
            assert full.states_expanded > 1
            assert len(full.plans) >= len(truncated.plans)
            metrics = service.metrics()
            assert metrics.deadline_exceeded_requests == 1


class TestServiceOverProtocolPlanners:
    def test_postgres_served_with_cache_and_metrics(self, registry, queries):
        expert = registry.get("postgres")
        with PlannerService(planner=expert) as service:
            cold = service.plan_many(queries)
            warm = service.plan_many(queries)
        assert all(not response.cache_hit for response in cold)
        assert all(response.cache_hit for response in warm)
        for query, response in zip(queries, cold):
            assert isinstance(response, ServiceResponse)
            assert isinstance(response, PlanResult)
            assert response.planner_name == "postgres"
            direct = expert.plan(PlanRequest(query=query)).best_plan
            assert response.best_plan.fingerprint() == direct.fingerprint()
        metrics = service.metrics()
        assert metrics.requests == 2 * len(queries)
        assert metrics.cache_hits == len(queries)

    def test_single_flight_for_protocol_planner(self, registry, queries):
        planner = _BlockingPlanner()
        service = PlannerService(planner=planner)
        try:
            calls = [PlanCall(service, queries[0]) for _ in range(6)]
            assert wait_until(lambda: planner.started >= 1)
            planner.release.set()
            responses = [call.result() for call in calls]
            fingerprints = {response.best_plan.fingerprint() for response in responses}
            assert len(fingerprints) == 1
            assert planner.started < 6  # dedup collapsed identical requests
        finally:
            planner.release.set()
            service.close()

    def test_mixed_queries_and_requests(self, registry, queries):
        with PlannerService(planner=registry.get("greedy")) as service:
            responses = service.plan_many(
                [queries[0], PlanRequest(query=queries[1], k=1, priority=3)]
            )
            with pytest.raises(TypeError):
                service.plan("not a query")
        assert responses[0].stats.priority == 0
        assert responses[1].stats.priority == 3


class _TruncatingPlanner:
    """Protocol planner that blocks until released, then reports truncation."""

    name = "truncating"
    thread_safe = True

    def __init__(self):
        self.release = threading.Event()
        self.started = 0
        self._lock = threading.Lock()

    def plan(self, request: PlanRequest) -> PlanResult:
        with self._lock:
            self.started += 1
        assert self.release.wait(timeout=10.0)
        return PlanResult(
            plans=[], predicted_latencies=[], planner_name=self.name,
            deadline_exceeded=True,
        )


class TestCacheKeyIdentity:
    def test_knobs_are_part_of_the_cache_key(self, registry, queries):
        bao = registry.get("bao")
        with PlannerService(planner=bao) as service:
            first = service.plan(PlanRequest(query=queries[0]))
            same_knobs = service.plan(PlanRequest(query=queries[0]))
            other_knobs = service.plan(
                PlanRequest(query=queries[0], knobs={"explore": False})
            )
        assert not first.cache_hit
        assert same_knobs.cache_hit
        assert not other_knobs.cache_hit  # knob-sensitive requests re-plan

    def test_bao_refit_invalidates_cache(self, planning_benchmark, queries):
        agent = BaoAgent(
            planning_benchmark.environment(), planning_benchmark.expert("postgres"), seed=0
        )
        with PlannerService(planner=agent) as service:
            before = service.plan(queries[0])
            assert service.plan(queries[0]).cache_hit
            agent.bootstrap()  # refits the latency model -> new version_key
            after = service.plan(queries[0])
        assert not before.cache_hit
        assert not after.cache_hit

    def test_quickpick_is_never_frozen_by_the_cache(self, queries):
        with PlannerService(planner=QuickPickOptimizer(seed=0)) as service:
            first = service.plan(queries[0])
            second = service.plan(queries[0])
        assert not first.cacheable
        assert not first.cache_hit
        assert not second.cache_hit  # stochastic draws are never memoised
        assert service.cache.stats().inserts == 0

    def test_bao_exploration_is_never_memoised(self, planning_benchmark, queries):
        agent = BaoAgent(
            planning_benchmark.environment(), planning_benchmark.expert("postgres"), seed=0
        )
        request = PlanRequest(query=queries[0], knobs={"explore": True})
        with PlannerService(planner=agent) as service:
            first = service.plan(request)
            second = service.plan(request)
        assert not first.cacheable
        assert not first.cache_hit
        assert not second.cache_hit  # every explore request re-draws its arm


class _StochasticPlanner:
    """Blocking planner whose draws are unique per call and non-replayable."""

    name = "stochastic"
    thread_safe = True

    def __init__(self):
        self.release = threading.Event()
        self.started = 0
        self._lock = threading.Lock()

    def plan(self, request: PlanRequest) -> PlanResult:
        with self._lock:
            self.started += 1
            draw = self.started
        assert self.release.wait(timeout=10.0)
        return PlanResult(
            plans=[random_plan(request.query, draw)],
            predicted_latencies=[float("nan")],
            planner_name=self.name,
            cacheable=False,
            extra={"draw": draw},
        )


class TestSingleFlightDeadlines:
    def test_followers_do_not_share_stochastic_draws(self, queries):
        planner = _StochasticPlanner()
        service = PlannerService(planner=planner)
        try:
            leader = PlanCall(service, queries[0])
            assert wait_until(lambda: planner.started == 1)
            follower = PlanCall(service, queries[0])
            time.sleep(0.05)  # let the follower join the in-flight search
            planner.release.set()
            draws = {
                leader.result().extra["draw"],
                follower.result().extra["draw"],
            }
            # Non-replayable draws are never shared through single-flight.
            assert len(draws) == 2
            assert planner.started == 2
        finally:
            planner.release.set()
            service.close()

    def test_follower_does_not_inherit_truncated_result(self, queries):
        planner = _TruncatingPlanner()
        service = PlannerService(planner=planner)
        try:
            leader = PlanCall(service, queries[0])
            assert wait_until(lambda: planner.started == 1)
            follower = PlanCall(service, queries[0])
            time.sleep(0.05)  # let the follower join the in-flight search
            planner.release.set()
            assert leader.result().deadline_exceeded
            # The follower re-planned instead of inheriting the truncation.
            assert follower.result().deadline_exceeded
            assert planner.started == 2
        finally:
            planner.release.set()
            service.close()

    def test_coalesced_follower_deadline_is_enforced(self, queries):
        planner = _BlockingPlanner()
        service = PlannerService(planner=planner)
        try:
            leader = PlanCall(service, queries[0])
            assert wait_until(lambda: planner.started == 1)
            follower = PlanCall(
                service, PlanRequest(query=queries[0], deadline_seconds=0.05)
            )
            response = follower.result()
            # The follower's own budget expired while riding the leader's
            # search: it gets an empty budget-truncated result, not a wait.
            assert response.deadline_exceeded
            assert response.plans == []
            # No planner ran for it, so it is neither a miss nor coalesced.
            assert not response.stats.coalesced and not response.stats.cache_hit
            planner.release.set()
            assert not leader.result().deadline_exceeded
            assert service.metrics().cache_misses == 1  # the leader only
        finally:
            planner.release.set()
            service.close()


class TestBatchBackpressure:
    def test_plan_many_cooperates_with_max_pending(self, registry, queries):
        with PlannerService(
            planner=registry.get("greedy"), max_pending=2
        ) as service:
            responses = service.plan_many(queries)
        assert len(responses) == len(queries)
        assert all(response.plans for response in responses)
        # A batch holds one admission slot at a time, so it is never refused.
        assert service.metrics().rejected_requests == 0

    def test_plan_many_with_zero_capacity_raises_instead_of_spinning(
        self, registry, queries
    ):
        with PlannerService(
            planner=registry.get("greedy"), max_pending=0
        ) as service:
            with pytest.raises(AdmissionError) as excinfo:
                service.plan_many(queries)
            # The batch stops at its first refusal, counted once.
            assert service.metrics().rejected_requests == 1
        assert excinfo.value.reason == "over_capacity"

    def test_drained_deadline_still_served_from_cache(self, network, queries):
        with PlannerService(network, planner=small_planner()) as service:
            warm = service.plan(PlanRequest(query=queries[0], k=2))
            # The budget is long gone by pickup, but a memoised hit is free.
            hit = service.plan(
                PlanRequest(query=queries[0], k=2, deadline_seconds=1e-9)
            )
        assert not warm.cache_hit
        assert hit.cache_hit
        assert hit.plans and not hit.deadline_exceeded

    def test_budget_spent_waiting_for_the_planner_lock_is_spent(self, queries):
        """A request queued behind another search on a planner that is not
        thread-safe gets only what is left of its budget once it holds the
        planner: here nothing, so the planner never sees it."""
        planner = _SleepingPlanner(seconds=0.3)
        with PlannerService(planner=planner) as service:
            first = PlanCall(service, queries[0])
            assert wait_until(lambda: planner.seen)
            queued = service.plan(PlanRequest(query=queries[1], deadline_seconds=0.1))
            # Admitted requests always get a response: the drained budget
            # yields an empty truncated result, not an exception.
            assert queued.deadline_exceeded
            assert queued.plans == []
            assert first.result().plans
            assert planner.seen == [queries[0].name]
            metrics = service.metrics()
            assert metrics.rejected_requests == 0
            assert metrics.deadline_exceeded_requests == 1
            # The drained request never ran a planner: not a phantom miss.
            assert metrics.cache_misses == 1


class _SleepingPlanner:
    """Not thread-safe: records each query it plans and sleeps ``seconds``."""

    name = "sleeping"

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.seen: list[str] = []

    def plan(self, request: PlanRequest) -> PlanResult:
        self.seen.append(request.query.name)
        time.sleep(self.seconds)
        return PlanResult(
            plans=[random_plan(request.query, 0)], predicted_latencies=[1.0],
            planner_name=self.name,
        )


class _OverlapRecordingPlanner:
    """Not thread-safe: records how many of its ``plan`` calls overlap."""

    name = "overlap"

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0

    def plan(self, request: PlanRequest) -> PlanResult:
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        time.sleep(0.02)
        with self._lock:
            self.active -= 1
        return PlanResult(
            plans=[random_plan(request.query, 0)], predicted_latencies=[1.0],
            planner_name=self.name,
        )


class TestCallerThreads:
    def test_planner_without_thread_safe_plans_one_request_at_a_time(self, queries):
        """The gateway calls ``plan`` from one thread per connection; a planner
        that does not declare ``thread_safe`` must never run twice at once."""
        planner = _OverlapRecordingPlanner()
        with PlannerService(planner=planner, max_workers=1) as service:
            barrier = threading.Barrier(4)

            def plan(query):
                barrier.wait(timeout=10.0)
                return service.plan(query)

            threads = [
                threading.Thread(target=plan, args=(query,)) for query in queries[:4]
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            assert service.metrics().cache_misses == 4
        assert planner.max_active == 1

    def test_plan_many_starts_no_thread(self, network, queries):
        before = set(threading.enumerate())
        with PlannerService(network, planner=small_planner()) as service:
            responses = service.plan_many(queries)
            assert all(response.plans for response in responses)
            assert not set(threading.enumerate()) - before
        assert [response.query.name for response in responses] == [
            query.name for query in queries
        ]


class TestNestedServiceDeadlines:
    def test_backend_admission_rejection_becomes_truncated_response(self, queries):
        class NestedRejectingPlanner:
            name = "nested"

            def plan(self, request):
                raise AdmissionError("inner budget drained", reason="deadline_expired")

        with PlannerService(planner=NestedRejectingPlanner()) as service:
            response = service.plan(PlanRequest(query=queries[0], deadline_seconds=5.0))
            assert response.deadline_exceeded
            assert response.plans == []
            metrics = service.metrics()
            assert metrics.rejected_requests == 0
            assert metrics.cache_misses == 0  # no planner actually ran

    def test_concurrent_agent_backend_bootstraps_once(self, planning_benchmark, queries):
        from repro.baselines.neo import NeoAgent
        from repro.planning.adapters import AgentPlanner

        neo = NeoAgent(
            planning_benchmark.environment(),
            planning_benchmark.expert("postgres"),
            TINY_CONFIG,
            expert_runtimes={},
        )
        adapter = AgentPlanner(neo, name="neo")
        bootstraps = []
        bootstrap = neo.bootstrap_from_simulation

        def counting_bootstrap():
            bootstraps.append(threading.get_ident())
            return bootstrap()

        neo.bootstrap_from_simulation = counting_bootstrap
        # The first wave of concurrent requests races the lazy bootstrap;
        # the adapter must bootstrap exactly once and serve every request.
        with PlannerService(planner=adapter) as service:
            calls = [PlanCall(service, query) for query in queries]
            responses = [call.result(timeout=120.0) for call in calls]
        assert all(response.plans for response in responses)
        assert len(bootstraps) == 1

    def test_agent_backed_planner_never_leaks_admission_errors(self, registry, queries):
        # "neo" delegates to the agent's own PlannerService; even sub-ms
        # budgets must yield truncated responses, not exceptions.
        with PlannerService(planner=registry.get("neo")) as service:
            for budget in (1e-6, 0.001, 10.0):
                response = service.plan(
                    PlanRequest(query=queries[0], k=2, deadline_seconds=budget)
                )
                assert response.deadline_exceeded or response.plans


class TestProtocolBeamThreadSafety:
    def test_registry_beam_served_concurrently_matches_serial(
        self, network, queries
    ):
        from repro.planning.adapters import BeamPlanner

        adapter = BeamPlanner(network, planner=small_planner())
        serial = [small_planner().search(query, network) for query in queries]
        with PlannerService(planner=adapter, default_k=2) as service:
            calls = [PlanCall(service, query) for query in queries]
            concurrent = [call.result(timeout=60.0) for call in calls]
        # Bare ``network.predict`` serialises callers on the network's own
        # lock, so concurrent serving stays deterministic.
        for direct, response in zip(serial, concurrent):
            assert response.best_plan.fingerprint() == direct.best_plan.fingerprint()


class TestStatsPropagation:
    def test_search_stats_reach_response_and_metrics(self, network, queries):
        with PlannerService(network, planner=small_planner()) as service:
            fresh = service.plan(queries[0])
            assert fresh.states_expanded > 0
            assert fresh.plans_scored > 0
            assert fresh.stats.states_expanded == fresh.states_expanded
            assert fresh.stats.plans_scored == fresh.plans_scored

            hit = service.plan(queries[0])
            assert hit.cache_hit
            # The envelope still carries the original search's stats; the
            # per-request stats charge no new work.
            assert hit.states_expanded == fresh.states_expanded
            assert hit.stats.states_expanded == 0

            metrics = service.metrics()
            assert metrics.total_states_expanded == fresh.states_expanded
            assert metrics.total_plans_scored == fresh.plans_scored

    def test_response_is_planresult_subtype(self, network, queries):
        with PlannerService(network, planner=small_planner()) as service:
            response = service.plan(queries[0])
        assert isinstance(response, PlanResult)
        assert response.result is response  # backwards-compatible view
