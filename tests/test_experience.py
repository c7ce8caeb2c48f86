"""Tests for the online-experience subsystem: sink, replay buffer, trainer loop.

Covers the request-path sink's backpressure/drop/stall accounting, the replay
buffer's fingerprint dedup + reservoir + recency-weighted sampling, the
autonomous train → shadow-gate → promote → monitor-arming cycle, the
forced-regression path (a sabotaged promotion rolled back by live traffic),
and the gateway surface (``/v1/experience``, the ``experience``
metrics block, the per-plan sink hook).
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.costmodel.cout import CoutCostModel
from repro.experience import (
    ExperienceSink,
    ExperienceTuple,
    OnlineTrainerLoop,
    ReplayBuffer,
    with_executed_cost,
)
from repro.experience import replay as replay_module
from repro.experience import sink as sink_module
from repro.lifecycle import ModelLifecycle, ModelRegistry, ShadowEvaluator
from repro.model.trainer import ValueNetworkTrainer
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.optimizer.quickpick import random_plan
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer, TrafficShadower
from repro.service.service import PlannerService
from repro.utils.rng import derive_seed, new_rng
from repro.workloads.benchmark import make_job_benchmark


def small_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False)


def small_network(featurizer, seed: int = 0) -> ValueNetwork:
    return ValueNetwork(
        featurizer,
        ValueNetworkConfig(
            query_hidden=16, query_embedding=8, tree_channels=(16, 8),
            head_hidden=8, seed=seed,
        ),
    )


@pytest.fixture(scope="module")
def bench():
    return make_job_benchmark(
        fact_rows=300, num_queries=8, num_templates=4, test_size=2,
        seed=0, size_range=(3, 5),
    )


@pytest.fixture(scope="module")
def queries(bench):
    return list(bench.train_queries)


@pytest.fixture(scope="module")
def plan_cost(bench):
    return CoutCostModel(bench.environment().estimator).cost


@pytest.fixture(scope="module")
def trained_network(bench, queries, plan_cost) -> ValueNetwork:
    """A network fitted to cout costs (never mutated; tests clone it)."""
    examples, labels = [], []
    for query in queries:
        seen: set[str] = set()
        for index in range(40):
            plan = random_plan(query, new_rng(derive_seed(7, query.name, index)))
            if plan.fingerprint() in seen:
                continue
            seen.add(plan.fingerprint())
            examples.append(bench.featurizer.featurize(query, plan))
            labels.append(plan_cost(query, plan))
    network = ValueNetwork(
        bench.featurizer,
        ValueNetworkConfig(
            query_hidden=32, query_embedding=16, tree_channels=(32, 16),
            head_hidden=16, seed=0,
        ),
    )
    ValueNetworkTrainer(
        network, learning_rate=3e-3, max_epochs=60, validation_fraction=0.0, seed=0
    ).fit(examples, labels)
    return network


def make_tuple(query, seed: int = 0, **overrides) -> ExperienceTuple:
    plan = random_plan(query, new_rng(derive_seed(seed, query.name, "xp")))
    defaults = dict(
        query=query, plan=plan, predicted_cost=1.0,
        planner_id="beam", model_version="v1", created_at=123.0,
    )
    defaults.update(overrides)
    return ExperienceTuple(**defaults)


# ---------------------------------------------------------------------- #
# The request-path sink
# ---------------------------------------------------------------------- #
class TestExperienceSink:
    def test_records_in_order_and_drains_oldest_first(self, queries):
        sink = ExperienceSink()
        items = [make_tuple(queries[0], seed=i) for i in range(3)]
        for item in items:
            assert sink.record(item)
        assert len(sink) == 3
        assert sink.drain() == items
        assert len(sink) == 0
        stats = sink.stats()
        assert stats.recorded == 3
        assert stats.dropped == 0
        assert stats.depth == 0

    def test_backpressure_drops_oldest_never_blocks(self, queries, monkeypatch):
        monkeypatch.setattr(sink_module, "CAPACITY", 2)
        sink = ExperienceSink()
        items = [make_tuple(queries[0], seed=i) for i in range(5)]
        accepted = [sink.record(item) for item in items]
        # The first two fit; each later record evicted the then-oldest.
        assert accepted == [True, True, False, False, False]
        stats = sink.stats()
        assert stats.recorded == 5
        assert stats.dropped == 3
        assert stats.depth == 2
        assert stats.capacity == 2
        # What remains is the newest traffic (training wants recency).
        assert sink.drain() == items[-2:]

    def test_drain_respects_max_items(self, queries):
        sink = ExperienceSink()
        items = [make_tuple(queries[0], seed=i) for i in range(4)]
        for item in items:
            sink.record(item)
        assert sink.drain(max_items=3) == items[:3]
        assert sink.drain() == items[3:]

    def test_stall_accounting_watermarks_slow_records(self, queries, monkeypatch):
        # A sub-microsecond threshold flags every call, proving the counter
        # and the max_record_seconds watermark are wired; the production
        # threshold (50ms) never fires for a lock + append.
        monkeypatch.setattr(sink_module, "STALL_THRESHOLD_SECONDS", 1e-9)
        sink = ExperienceSink()
        sink.record(make_tuple(queries[0]))
        stats = sink.stats()
        assert stats.stalls == 1
        assert stats.max_record_seconds > 0.0


# ---------------------------------------------------------------------- #
# The replay buffer
# ---------------------------------------------------------------------- #
class TestReplayBuffer:
    def test_fingerprint_dedup_refreshes_instead_of_duplicating(self, queries):
        buffer = ReplayBuffer()
        item = make_tuple(queries[0], seed=1)
        assert buffer.add(with_executed_cost(item, 10.0))
        # Same (query, plan) seen again with a fresher executed cost: still
        # resident (add returns True) but folded, not duplicated.
        assert buffer.add(with_executed_cost(item, 12.0))
        assert len(buffer) == 1
        stats = buffer.stats()
        assert stats.seen == 2
        assert stats.duplicates == 1
        # The refreshed entry carries the latest observation.
        (resident,) = buffer.sample(1)
        assert resident.executed_cost == 12.0

    def test_reservoir_respects_capacity(self, queries, monkeypatch):
        monkeypatch.setattr(replay_module, "CAPACITY", 8)
        buffer = ReplayBuffer()
        for index in range(50):
            buffer.add(make_tuple(queries[index % len(queries)], seed=index))
        assert len(buffer) == 8
        stats = buffer.stats()
        assert stats.size == 8
        assert stats.seen == 50
        # Every over-capacity add either replaced a victim or was skipped.
        assert stats.reservoir_replacements + stats.reservoir_skips == 50 - 8
        assert stats.reservoir_replacements > 0
        assert stats.reservoir_skips > 0

    def test_recency_weighted_sampling_prefers_fresh_experience(self, queries, monkeypatch):
        monkeypatch.setattr(replay_module, "RECENCY_HALF_LIFE", 2.0)
        buffer = ReplayBuffer()
        for index in range(40):
            buffer.add(make_tuple(queries[index % len(queries)], seed=index))
        newest = max(entry.seq for entry in buffer._entries.values())
        draws = [item for _ in range(30) for item in buffer.sample(4)]
        seqs = [buffer._entries[item.fingerprint()].seq for item in draws]
        # With a 2-add half-life, old entries are exponentially unlikely:
        # the mean sampled seq must sit deep in the recent half.
        assert sum(seqs) / len(seqs) > newest / 2

    def test_sample_never_exceeds_population(self, queries):
        buffer = ReplayBuffer()
        for index in range(3):
            buffer.add(make_tuple(queries[0], seed=index))
        sampled = buffer.sample(10)
        assert len(sampled) == 3
        assert len({item.fingerprint() for item in sampled}) == 3


# ---------------------------------------------------------------------- #
# The autonomous loop: train -> gate -> promote -> monitor armed
# ---------------------------------------------------------------------- #
class RecordingMonitor:
    """A live-monitor stand-in capturing every arming call."""

    def __init__(self):
        self.watched: list[tuple] = []
        self.disarms = 0

    def watch(self, candidate_version, baseline_version):
        self.watched.append((candidate_version, baseline_version))

    def disarm(self):
        self.disarms += 1


class TestOnlineTrainerLoop:
    def make_stack(self, bench, queries, plan_cost, network, **gate_bounds):
        bounds = dict(max_regression=25.0, max_total_regression=5.0)
        bounds.update(gate_bounds)
        service = PlannerService(network, planner=small_planner())
        registry = ModelRegistry()
        gate = ShadowEvaluator(
            queries[:3], plan_cost, planner=small_planner(), **bounds
        )
        lifecycle = ModelLifecycle(
            service, registry, gate, featurizer=bench.featurizer
        )
        lifecycle.baseline(network)
        return service, registry, lifecycle

    def observe_traffic(self, loop, queries, network, rounds: int = 1):
        planner = small_planner()
        for index in range(rounds):
            for query in queries:
                result = planner.search(query, network)
                loop.observe(
                    query, result.plans[0], float(result.predicted_latencies[0]),
                    planner_id="beam", model_version=index,
                )

    def test_autonomous_round_promotes_and_arms_the_monitor(
        self, bench, queries, plan_cost
    ):
        network = small_network(bench.featurizer, seed=2)
        service, registry, lifecycle = self.make_stack(
            bench, queries, plan_cost, network
        )
        monitor = RecordingMonitor()
        lifecycle.live_monitor = monitor
        baseline_version = registry.serving_version
        loop = OnlineTrainerLoop(
            lifecycle, plan_cost,
            min_new_tuples=len(queries), sample_size=32, max_epochs=3,
        )
        try:
            with loop:
                assert loop.running
                self.observe_traffic(loop, queries, network)
                deadline = time.monotonic() + 60.0
                while loop.metrics().rounds < 1:
                    assert time.monotonic() < deadline, (
                        f"no autonomous round: {loop.metrics().to_json_dict()}"
                    )
                    time.sleep(0.02)
            metrics = loop.metrics()
            assert metrics.rounds == 1
            assert metrics.failures == 0
            assert metrics.trained_examples > 0
            assert len(metrics.cost_trend) == 1
            assert metrics.promotions + metrics.rejections == 1
            if metrics.promotions:
                # The full chain closed: a new version is serving and the
                # live monitor is armed with (candidate, displaced baseline).
                assert registry.serving_version != baseline_version
                assert monitor.watched == [
                    (registry.serving_version, baseline_version)
                ]
        finally:
            service.close()

    def test_executed_costs_come_from_the_yardstick(self, bench, queries, plan_cost):
        network = small_network(bench.featurizer, seed=4)
        service, _, lifecycle = self.make_stack(bench, queries, plan_cost, network)
        loop = OnlineTrainerLoop(lifecycle, plan_cost, min_new_tuples=4)
        try:
            self.observe_traffic(loop, queries[:4], network)
            assert loop._ingest() == 4
            for item in loop.buffer.sample(4):
                assert item.executed_cost == pytest.approx(
                    plan_cost(item.query, item.plan)
                )
        finally:
            loop.close()
            service.close()

    def test_queries_sharing_a_name_keep_their_own_points_and_labels(
        self, queries, plan_cost
    ):
        """Regression: label correction once resolved queries by name, so a
        second query renamed to the first's name took over every point and
        both queries' shared subplans took the smaller label."""
        first = queries[0]
        impostor = dataclasses.replace(queries[1], name=first.name)
        assert impostor.fingerprint() != first.fingerprint()
        batch = [
            with_executed_cost(make_tuple(first, seed=1), 100.0),
            with_executed_cost(make_tuple(impostor, seed=2), 5.0),
        ]
        loop = OnlineTrainerLoop(None, plan_cost)
        points = loop._training_points(batch)
        expected = [
            (item.query, item.executed_cost)
            for item in batch
            for _ in item.plan.iter_subplans()
        ]
        assert len(points) == len(expected)
        for point, (query, label) in zip(points, expected):
            assert point.query is query
            assert point.label == label

    def test_round_threshold_and_cadence_gate_rounds(self, bench, queries, plan_cost):
        network = small_network(bench.featurizer, seed=5)
        service, _, lifecycle = self.make_stack(bench, queries, plan_cost, network)
        loop = OnlineTrainerLoop(
            lifecycle, plan_cost, min_new_tuples=1000,
            min_round_interval_seconds=3600.0,
        )
        try:
            self.observe_traffic(loop, queries[:2], network)
            loop._ingest()
            assert not loop._round_due()  # under the tuple threshold
            assert loop._round(force=False) is None
            assert loop.metrics().rounds == 0
        finally:
            loop.close()
            service.close()

    def test_forced_regression_is_rolled_back_by_live_traffic(
        self, bench, queries, plan_cost, trained_network
    ):
        """The safety net end to end: a candidate that games the (loosened)
        promotion gate but regresses real traffic is caught by the armed
        TrafficShadower and rolled back automatically."""
        serving = trained_network.clone()
        service = PlannerService(serving, planner=small_planner())
        registry = ModelRegistry()
        # An intentionally blind gate: everything passes, so promotion
        # safety rests entirely on the live monitor.
        gate = ShadowEvaluator(
            queries[:2], plan_cost, planner=small_planner(),
            max_regression=1e9, max_total_regression=1e9,
        )

        def sabotage(network):
            bad = network.clone()
            bad.head_fc2.weight.value = -bad.head_fc2.weight.value
            bad.head_fc2.bias.value = -bad.head_fc2.bias.value
            bad.bump_version()
            return bad

        class SabotagingLifecycle(ModelLifecycle):
            """Swaps every trained candidate for an inverted-ranking clone —
            a deterministic stand-in for fine-tuning gone wrong."""

            def evaluate_and_apply(self, snapshot):
                bad = sabotage(snapshot.restore(bench.featurizer))
                bad_snapshot = self.registry.register(bad, source="sabotaged")
                return super().evaluate_and_apply(bad_snapshot)

        lifecycle = SabotagingLifecycle(
            service, registry, gate, featurizer=bench.featurizer
        )
        baseline = lifecycle.baseline(serving)
        shadower = TrafficShadower(
            lifecycle, plan_cost,
            sample_fraction=1.0, max_regression=1.3, max_total_regression=1.25,
            min_samples=3, window=16, planner=small_planner(),
        )
        loop = OnlineTrainerLoop(
            lifecycle, plan_cost, min_new_tuples=4, sample_size=16, max_epochs=1
        )
        try:
            self.observe_traffic(loop, queries, serving)
            decision = loop.run_round_now()
            assert decision is not None and decision.promoted
            condemned = registry.serving_version
            assert condemned != baseline.version
            assert shadower.armed
            assert loop.metrics().promotions == 1

            # Live traffic flows; the shadower replans it against both
            # versions and the inverted candidate breaches the bound.
            deadline = time.monotonic() + 60.0
            while shadower.stats().rollbacks < 1:
                assert time.monotonic() < deadline, (
                    f"no automatic rollback: {shadower.stats().to_json_dict()}"
                )
                for query in queries:
                    shadower.observe(query)
                shadower.drain(timeout=10.0)
            assert registry.serving_version == baseline.version
            assert not shadower.armed
            # The loop's metrics surface the rollback it caused.
            assert loop.metrics().rollbacks == 1
        finally:
            loop.close()
            shadower.close()
            service.close()


# ---------------------------------------------------------------------- #
# Gateway surface
# ---------------------------------------------------------------------- #
class TestGatewaySurface:
    @pytest.fixture()
    def stack(self, bench, queries, plan_cost):
        network = small_network(bench.featurizer, seed=8)
        service = PlannerService(network, planner=small_planner())
        registry = ModelRegistry()
        gate = ShadowEvaluator(queries[:2], plan_cost, planner=small_planner())
        lifecycle = ModelLifecycle(
            service, registry, gate, featurizer=bench.featurizer
        )
        lifecycle.baseline(network)
        # High threshold + never started: the sink accumulates, no rounds.
        loop = OnlineTrainerLoop(lifecycle, plan_cost, min_new_tuples=10_000)
        gateway = PlanningServer(
            service, lifecycle=lifecycle, experience=loop, queries=queries,
        )
        yield gateway, loop
        loop.close()
        gateway.close()
        service.close()

    def test_served_plans_flow_into_the_sink(self, queries, stack):
        gateway, loop = stack
        status, body = gateway.handle_plan({"query": queries[0].name, "k": 2})
        assert status == 200
        stats = loop.sink.stats()
        # One tuple per returned plan (top-k observations, not just the best).
        assert stats.recorded == len(body["plans"])
        queued = loop.sink.drain()
        assert {item.query.name for item in queued} == {queries[0].name}
        assert all(item.planner_id for item in queued)

    def test_plan_many_records_each_result(self, queries, stack):
        gateway, loop = stack
        payload = {"requests": [{"query": query.name} for query in queries[:3]]}
        status, _ = gateway.plan_many_responses(payload)
        assert status == 200
        names = {item.query.name for item in loop.sink.drain()}
        assert names == {query.name for query in queries[:3]}

    def test_experience_endpoint_reports_the_loop(self, queries, stack):
        gateway, loop = stack
        gateway.handle_plan({"query": queries[0].name, "k": 2})
        status, body = gateway.handle_experience()
        assert status == 200
        assert body["running"] is False
        assert body["sink"]["recorded"] >= 1
        assert body["rounds"] == 0
        assert body["sink"]["stalls"] == 0

    def test_metrics_carry_the_experience_block(self, queries, stack):
        gateway, _ = stack
        gateway.handle_plan({"query": queries[0].name, "k": 2})
        status, body = gateway.handle_metrics()
        assert status == 200
        assert body["experience"] is not None
        assert body["experience"]["sink"]["recorded"] >= 1

    def test_experience_endpoint_503_without_a_loop(self, bench, queries):
        network = small_network(bench.featurizer, seed=9)
        service = PlannerService(network, planner=small_planner())
        gateway = PlanningServer(service, queries=queries)
        try:
            status, body = gateway.handle_experience()
            assert status == 503
            assert body["kind"] == "unavailable"
            status, body = gateway.handle_metrics()
            assert status == 200
            assert body["experience"] is None
        finally:
            gateway.close()
            service.close()

    def test_sink_failures_never_fail_the_request(self, queries, stack):
        gateway, loop = stack

        def explode(*args, **kwargs):
            raise RuntimeError("experience subsystem on fire")

        loop.observe = explode  # type: ignore[assignment]
        status, body = gateway.handle_plan({"query": queries[0].name, "k": 2})
        assert status == 200
        assert body["plans"]
