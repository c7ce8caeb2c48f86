"""Tests for the planner service: cache, coalescing, concurrency, metrics."""

from __future__ import annotations

import threading
import time

import pytest

from repro.agent.balsa import BalsaAgent
from repro.agent.config import BalsaConfig
from repro.model.trainer import ValueNetworkTrainer
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.planning.envelope import AdmissionError, PlanRequest
from repro.plans.validation import validate_plan
from repro.search.beam import BeamSearchPlanner
from repro.service.cache import ServicePlanCache
from repro.service.service import PlannerService
from repro.sql.query import Query
from repro.workloads.benchmark import make_job_benchmark
from tests.conftest import PlanCall


def small_network(featurizer, seed: int = 0) -> ValueNetwork:
    return ValueNetwork(
        featurizer,
        ValueNetworkConfig(
            query_hidden=16, query_embedding=8, tree_channels=(16, 8), head_hidden=8,
            seed=seed,
        ),
    )


def small_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False)


@pytest.fixture(scope="module")
def service_benchmark():
    return make_job_benchmark(
        fact_rows=300, num_queries=10, num_templates=4, test_size=3,
        seed=0, size_range=(3, 5),
    )


@pytest.fixture(scope="module")
def service_queries(service_benchmark):
    return list(service_benchmark.train_queries)


@pytest.fixture()
def network(service_benchmark):
    return small_network(service_benchmark.featurizer)


class TestQueryFingerprint:
    def test_stable_and_name_insensitive(self, service_queries):
        query = service_queries[0]
        renamed = Query(
            name="renamed", tables=query.tables, joins=query.joins, filters=query.filters
        )
        assert query.fingerprint() == renamed.fingerprint()

    def test_from_list_order_insensitive(self, service_queries):
        query = service_queries[0]
        reordered = Query(
            name=query.name,
            tables=tuple(reversed(query.tables)),
            joins=tuple(reversed(query.joins)),
            filters=tuple(reversed(query.filters)),
        )
        assert query.fingerprint() == reordered.fingerprint()

    def test_distinct_queries_distinct_fingerprints(self, service_queries):
        fingerprints = {q.fingerprint() for q in service_queries}
        assert len(fingerprints) == len(service_queries)


class TestServicePlanCache:
    def test_lru_eviction(self):
        cache = ServicePlanCache(capacity=2)
        cache.store(("a", 0), "ra")
        cache.store(("b", 0), "rb")
        assert cache.lookup(("a", 0)) == "ra"  # refresh a's recency
        cache.store(("c", 0), "rc")  # evicts b
        assert cache.lookup(("b", 0)) is None
        assert cache.lookup(("a", 0)) == "ra"
        assert cache.lookup(("c", 0)) == "rc"
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2

    def test_zero_capacity_disables(self):
        cache = ServicePlanCache(capacity=0)
        cache.store(("a", 0), "ra")
        assert cache.lookup(("a", 0)) is None
        assert len(cache) == 0


class TestCacheAcrossModelVersions:
    def test_hit_then_invalidated_by_version_bump(self, service_queries, network):
        with PlannerService(network, planner=small_planner()) as service:
            first = service.plan(service_queries[0])
            second = service.plan(service_queries[0])
            assert not first.cache_hit
            assert second.cache_hit
            assert second.best_plan.fingerprint() == first.best_plan.fingerprint()

            network.bump_version()
            third = service.plan(service_queries[0])
            assert not third.cache_hit

    def test_set_state_and_training_bump_version(self, service_benchmark, network):
        featurizer = service_benchmark.featurizer
        before = network.version_key()
        network.set_state(network.get_state())
        after_load = network.version_key()
        assert after_load != before

        queries = list(service_benchmark.train_queries)[:2]
        planner = small_planner()
        examples, labels = [], []
        for query in queries:
            result = planner.search(query, network)
            examples.append(featurizer.featurize(query, result.best_plan))
            labels.append(1.0)
        trainer = ValueNetworkTrainer(network, max_epochs=1, validation_fraction=0.0)
        trainer.fit(examples, labels)
        assert network.version_key() != after_load

    def test_renamed_query_hits_cache(self, service_queries, network):
        with PlannerService(network, planner=small_planner()) as service:
            query = service_queries[0]
            service.plan(query)
            renamed = Query(
                name="other-name", tables=query.tables, joins=query.joins,
                filters=query.filters,
            )
            assert service.plan(renamed).cache_hit

    def test_separate_networks_do_not_share_entries(self, service_benchmark, service_queries):
        net_a = small_network(service_benchmark.featurizer, seed=0)
        net_b = small_network(service_benchmark.featurizer, seed=0)
        holder = {"net": net_a}
        with PlannerService(
            network_provider=lambda: holder["net"], planner=small_planner()
        ) as service:
            service.plan(service_queries[0])
            holder["net"] = net_b
            assert not service.plan(service_queries[0]).cache_hit


class TestConcurrentPlanning:
    def test_concurrent_matches_serial(self, service_queries, network):
        planner = small_planner()
        serial = [planner.search(query, network) for query in service_queries]
        with PlannerService(network, planner=small_planner()) as service:
            calls = [PlanCall(service, query) for query in service_queries]
            concurrent = [call.result(timeout=60.0) for call in calls]
        for direct, response in zip(serial, concurrent):
            assert not response.cache_hit
            assert response.best_plan.fingerprint() == direct.best_plan.fingerprint()
            assert [p.fingerprint() for p in response.result.plans] == [
                p.fingerprint() for p in direct.plans
            ]

    def test_plans_are_valid(self, service_queries, network):
        with PlannerService(network, planner=small_planner()) as service:
            for response in service.plan_many(service_queries):
                validate_plan(response.query, response.best_plan)

    def test_single_flight_deduplicates(self, service_queries, network):
        class SlowPlanner(BeamSearchPlanner):
            def search(self, query, net, score_fn=None, top_k=None, deadline=None):
                result = super().search(
                    query, net, score_fn=score_fn, top_k=top_k, deadline=deadline
                )
                time.sleep(0.05)
                return result

        planner = SlowPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False)
        query = service_queries[0]
        with PlannerService(network, planner=planner) as service:
            calls = [PlanCall(service, query) for _ in range(8)]
            responses = [call.result(timeout=60.0) for call in calls]
        fingerprints = {r.best_plan.fingerprint() for r in responses}
        assert len(fingerprints) == 1
        metrics = service.metrics()
        assert metrics.cache_misses == 1
        assert metrics.cache_hits + metrics.coalesced_requests == 7


class TestServiceMetrics:
    def test_accounting(self, service_queries, network):
        with PlannerService(network, planner=small_planner()) as service:
            service.plan_many(service_queries)
            service.plan_many(service_queries)
            metrics = service.metrics()

        assert metrics.requests == 2 * len(service_queries)
        assert metrics.cache_hits == len(service_queries)
        assert metrics.cache_misses == len(service_queries)
        assert metrics.coalesced_requests == 0
        assert metrics.hit_rate == pytest.approx(0.5)
        assert metrics.total_planning_seconds > 0
        assert metrics.mean_planning_seconds > 0
        assert metrics.wall_seconds > 0
        assert metrics.queries_per_second > 0
        assert metrics.max_queue_wait_seconds >= metrics.mean_queue_wait_seconds >= 0
        assert metrics.cache.hits == len(service_queries)
        assert metrics.cache.size == len(service_queries)
        assert metrics.total_service_seconds >= metrics.total_planning_seconds

        body = metrics.to_json_dict()
        assert body["requests"] == metrics.requests
        assert "queries_per_second" in body["derived"]

    def test_reset_metrics(self, service_queries, network):
        """``reset_metrics`` zeroes every request counter, the latency
        histograms and the throughput window (``bench_lifecycle_swap``
        resets between phases)."""
        with PlannerService(network, planner=small_planner()) as service:
            service.plan(service_queries[0])
            service.plan(service_queries[0])
            with pytest.raises(AdmissionError):
                service.plan(PlanRequest(service_queries[1], deadline_seconds=0))
            service.record_promotion_rejected()
            service.reset_metrics()
            metrics = service.metrics()
            for name in (
                "requests", "cache_hits", "cache_misses", "coalesced_requests",
                "rejected_requests", "deadline_exceeded_requests", "swaps",
                "promotions_rejected", "warmed_entries", "total_states_expanded",
                "total_plans_scored", "total_queue_wait_seconds",
                "max_queue_wait_seconds", "total_planning_seconds",
                "total_service_seconds", "wall_seconds",
            ):
                assert getattr(metrics, name) == 0, name
            histograms = [
                entry for entry in service.telemetry.snapshot()["metrics"]
                if entry["kind"] == "histogram"
            ]
            assert len(histograms) == 3
            assert all(entry["count"] == 0 for entry in histograms)
            service.plan(service_queries[0])
            assert service.metrics().requests == service.metrics().cache_hits == 1

    def test_closed_service_rejects_requests(self, service_queries, network):
        service = PlannerService(network, planner=small_planner())
        service.close()
        with pytest.raises(RuntimeError):
            service.plan(service_queries[0])


class TestExactAccounting:
    """Every request is counted once, where it finishes, under concurrency;
    nothing the service keeps grows with the number of requests."""

    THREADS = 8

    @staticmethod
    def footprint(service) -> dict:
        sizes = {
            name: len(value)
            for name, value in vars(service).items()
            if hasattr(value, "__len__") and not isinstance(value, str)
        }
        for family in service.telemetry._families.values():
            sizes[family.name] = len(family.children)
        return sizes

    def run_round(self, service, queries, held) -> dict:
        """8 threads: a barrier-started burst on one slow query (coalesced
        joins, over-capacity rejections), then hits, misses, expired
        deadlines and expired-at-admission rejections."""
        barrier = threading.Barrier(self.THREADS)
        outcomes = {"responses": [], "rejected": 0, "expired": 0}
        lock = threading.Lock()

        def worker(index: int) -> None:
            requests = [PlanRequest(held, k=2)]
            for offset in range(6):
                requests.append(PlanRequest(queries[(index + offset) % len(queries)], k=2))
            requests.append(PlanRequest(queries[index % len(queries)], k=1, deadline_seconds=1e-9))
            requests.append(PlanRequest(queries[0], k=2, deadline_seconds=0))
            barrier.wait()
            for request in requests:
                try:
                    response = service.plan(request)
                except AdmissionError:
                    with lock:
                        outcomes["rejected"] += 1
                    continue
                with lock:
                    outcomes["responses"].append(response)
                    outcomes["expired"] += int(request.deadline_seconds == 1e-9)

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
        return outcomes

    def test_counts_add_up_under_concurrency(self, service_queries, network):
        held = service_queries[-1]
        queries = service_queries[:-1]

        class SlowPlanner(BeamSearchPlanner):
            def search(self, query, net, score_fn=None, top_k=None, deadline=None):
                if query is held:
                    time.sleep(0.2)
                return super().search(
                    query, net, score_fn=score_fn, top_k=top_k, deadline=deadline
                )

        planner = SlowPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False)
        with PlannerService(network, planner=planner, max_pending=6) as service:
            first = self.run_round(service, queries, held)
            after_one = self.footprint(service)
            second = self.run_round(service, queries, held)
            assert self.footprint(service) == after_one
            metrics = service.metrics()
            histograms = {
                entry["name"]: entry["count"]
                for entry in service.telemetry.snapshot()["metrics"]
                if entry["kind"] == "histogram"
            }

        responses = first["responses"] + second["responses"]
        expired = first["expired"] + second["expired"]
        assert metrics.requests == len(responses)
        assert metrics.rejected_requests == first["rejected"] + second["rejected"]
        assert metrics.rejected_requests >= 2 * self.THREADS  # the zero budgets
        assert metrics.coalesced_requests > 0
        assert metrics.cache_hits == sum(r.stats.cache_hit for r in responses)
        assert metrics.coalesced_requests == sum(r.stats.coalesced for r in responses)
        assert metrics.requests == (
            metrics.cache_hits + metrics.cache_misses
            + metrics.coalesced_requests + expired
        )
        assert metrics.deadline_exceeded_requests == expired
        assert histograms == {
            "repro_request_service_seconds": metrics.requests,
            "repro_request_queue_wait_seconds": metrics.requests,
            "repro_request_planning_seconds": metrics.cache_misses + expired,
        }
        assert metrics.total_states_expanded == sum(
            r.stats.states_expanded for r in responses
        )
        assert service.pending_requests == 0


class TestAgentThroughService:
    def test_agent_service_caches_repeated_evaluations(self, service_benchmark):
        config = BalsaConfig(
            seed=0, num_iterations=0, beam_size=3, top_k=2,
            enumerate_scan_operators=False, use_simulation=False,
            eval_interval=0,
        )
        agent = BalsaAgent(service_benchmark.environment(), config)
        agent.bootstrap_from_simulation()
        queries = list(service_benchmark.test_queries)
        first = agent.evaluate(queries)
        second = agent.evaluate(queries)
        assert {n: p.fingerprint() for n, (p, _) in first.items()} == {
            n: p.fingerprint() for n, (p, _) in second.items()
        }
        metrics = agent.planner_service.metrics()
        assert metrics.cache_hits >= len(queries)
        agent.close()
