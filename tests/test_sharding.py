"""Tests for the sharded gateway and its cross-process plan-cache tier.

Covers the cache-server protocol (framing, LRU, tag invalidation), client
degradation when the tier dies, the tiered L1/L2 cache, cross-worker cache
hits, version-keyed invalidation on promote/rollback, and the pre-forked
:class:`~repro.server.sharding.ShardedGateway` (both socket strategies,
supervisor respawn of a killed worker).
"""

from __future__ import annotations

import glob
import json
import os
import signal
import socket
import struct
import tempfile
import threading
import time
import urllib.error
import urllib.request
import zlib

import pytest

from repro.ipc import MAX_FRAME_BYTES
from repro.lifecycle import ModelLifecycle, ModelRegistry
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.optimizer.quickpick import random_plan
from repro.planning.envelope import PlanRequest, PlanResult
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer
from repro.server.sharding import (
    OpsBroadcastServer,
    OpsChannelClient,
    PlanCacheServer,
    ShardedGateway,
    TelemetryPushClient,
    WorkerSpec,
)
from repro.service.cache import (
    ServicePlanCache,
    TieredPlanCache,
    encode_cache_key,
    encode_tier_value,
)
from repro.service import shared_tier
from repro.service.service import PlannerService
from repro.telemetry.metrics import MetricsRegistry
from repro.utils.rng import derive_seed, new_rng
from repro.workloads.benchmark import make_job_benchmark

HAS_REUSE_PORT = hasattr(socket, "SO_REUSEPORT")


def small_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=2, top_k=2, enumerate_scan_operators=False)


@pytest.fixture(scope="module")
def bench():
    return make_job_benchmark(
        fact_rows=200, num_queries=6, num_templates=3, test_size=2,
        seed=1, size_range=(3, 4),
    )


@pytest.fixture(scope="module")
def network(bench) -> ValueNetwork:
    """Untrained but servable: ranking quality is irrelevant to sharding."""
    return ValueNetwork(
        bench.featurizer,
        ValueNetworkConfig(
            query_hidden=16, query_embedding=8, tree_channels=(16, 8),
            head_hidden=8, seed=1,
        ),
    )


@pytest.fixture()
def cache_server(tmp_path):
    server = PlanCacheServer(str(tmp_path / "cache.sock"), capacity=64).start()
    yield server
    server.close()


def make_result(bench, query, seed: int = 0) -> PlanResult:
    plans = [random_plan(query, new_rng(derive_seed(seed, query.name, i))) for i in range(2)]
    return PlanResult(
        plans=plans,
        predicted_latencies=[1.0, 2.0],
        planning_seconds=0.01,
        planner_name="beam",
    )


def http(method: str, url: str, payload=None, timeout: float = 30.0):
    """One JSON HTTP exchange on a fresh connection; (status, body, headers)."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read().decode("utf-8")),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8")), dict(error.headers)


# ---------------------------------------------------------------------- #
# Cache server protocol
# ---------------------------------------------------------------------- #
class TestCacheProtocol:
    def test_put_get_exists_round_trip(self, cache_server, shared_client):
        client = shared_client(cache_server.address)
        assert client.ping()
        assert client.get(b"k1") is None
        assert not client.exists(b"k1")
        assert client.put(b"k1", b"v1-tag", b"payload-bytes")
        assert client.get(b"k1") == b"payload-bytes"
        assert client.exists(b"k1")
        stats = cache_server.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["inserts"] == 1
        assert stats["size"] == 1

    def test_two_clients_share_entries(self, cache_server, shared_client):
        writer = shared_client(cache_server.address)
        reader = shared_client(cache_server.address)
        assert writer.put(b"shared", b"tag", b"value")
        assert reader.get(b"shared") == b"value"

    def test_lru_eviction_tracks_tag_index(self, tmp_path, shared_client):
        with PlanCacheServer(str(tmp_path / "lru.sock"), capacity=2) as server:
            client = shared_client(server.address)
            client.put(b"a", b"t1", b"1")
            client.put(b"b", b"t1", b"2")
            client.get(b"a")  # refresh recency: b is now LRU
            client.put(b"c", b"t2", b"3")
            assert client.exists(b"a")
            assert not client.exists(b"b")
            assert client.exists(b"c")
            stats = server.stats()
            assert stats["evictions"] == 1
            # The evicted key must leave the tag index too.
            assert client.invalidate(b"t1") == 1

    def test_invalidate_by_tag(self, cache_server, shared_client):
        client = shared_client(cache_server.address)
        client.put(b"k1", b"v1", b"x")
        client.put(b"k2", b"v1", b"y")
        client.put(b"k3", b"v2", b"z")
        assert client.invalidate(b"v1") == 2
        assert not client.exists(b"k1")
        assert not client.exists(b"k2")
        assert client.exists(b"k3")
        assert client.invalidate(b"v1") == 0
        assert cache_server.stats()["invalidated"] == 2

    def test_retagging_a_key_moves_it_between_tags(self, cache_server, shared_client):
        client = shared_client(cache_server.address)
        client.put(b"k", b"old", b"1")
        client.put(b"k", b"new", b"2")
        assert client.invalidate(b"old") == 0
        assert client.get(b"k") == b"2"
        assert client.invalidate(b"new") == 1

    def test_clear_and_server_stats(self, cache_server, shared_client):
        client = shared_client(cache_server.address)
        client.put(b"k", b"t", b"v")
        assert client.clear()
        assert client.get(b"k") is None
        remote = client.server_stats()
        assert remote is not None
        assert remote["size"] == 0
        assert remote["inserts"] == 1

    def test_oversize_put_is_refused_client_side(self, cache_server, shared_client):
        client = shared_client(cache_server.address)
        assert not client.put(b"big", b"t", b"\x00" * MAX_FRAME_BYTES)
        assert client.ping()  # connection not poisoned

    def test_empty_value_round_trip(self, cache_server, shared_client):
        client = shared_client(cache_server.address)
        assert client.put(b"empty", b"t", b"")
        assert client.get(b"empty") == b""

    def test_nested_traced_envelopes_are_malformed_not_recursed_into(self, cache_server):
        """A peer's frame of nothing but traced envelopes (``T`` + a zero-length
        trace id, 5000 deep) is answered like any malformed frame, and the
        connection stays usable."""

        def exchange(sock, payload: bytes) -> bytes:
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            (length,) = struct.unpack(">I", sock.recv(4, socket.MSG_WAITALL))
            return sock.recv(length, socket.MSG_WAITALL)

        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5.0)
        sock.connect(cache_server.address)
        try:
            assert exchange(sock, b"T\x00" * 5000).startswith(b"X")
            assert exchange(sock, b"?") == b"O"  # the same connection still pings
            # One envelope is still unwrapped, timed and answered in kind.
            reply = exchange(sock, b"T\x00" + b"?")
            assert reply[:1] == b"T" and reply[9:] == b"O"
        finally:
            sock.close()

    def test_client_degrades_when_server_is_down(self, tmp_path, shared_client, monkeypatch):
        server = PlanCacheServer(str(tmp_path / "dead.sock"), capacity=8).start()
        monkeypatch.setattr(shared_tier, "RETRY_SECONDS", 30.0)
        client = shared_client(server.address)
        assert client.put(b"k", b"t", b"v")
        server.close()
        # Every op is a miss / no-op, never an exception.
        assert client.get(b"k") is None
        assert not client.put(b"k2", b"t", b"v")
        assert not client.exists(b"k")
        assert client.invalidate(b"t") == 0
        assert not client.ping()
        assert not client.available
        stats = client.stats()
        assert stats["errors"] >= 1
        assert stats["skipped_while_down"] >= 1

    def test_client_reconnects_after_retry_window(self, tmp_path, shared_client, monkeypatch):
        path = str(tmp_path / "flap.sock")
        server = PlanCacheServer(path, capacity=8).start()
        monkeypatch.setattr(shared_tier, "RETRY_SECONDS", 0.05)
        client = shared_client(server.address)
        assert client.ping()
        server.close()
        assert not client.ping()  # marks the tier down
        revived = PlanCacheServer(path, capacity=8).start()
        try:
            deadline = time.monotonic() + 5.0
            while not client.ping():
                assert time.monotonic() < deadline, "client never reconnected"
                time.sleep(0.02)
        finally:
            client.close()
            revived.close()


# ---------------------------------------------------------------------- #
# Tiered cache over the real server
# ---------------------------------------------------------------------- #
def resealed(body: bytes) -> bytes:
    """A tier value around ``body`` (count, fields offset, rendering) with a
    good tag and checksum: the header layout of ``repro.service.cache``."""
    return b"RPT\x01" + struct.pack("<I", zlib.crc32(body)) + body


def fields_not_json(value: bytes) -> bytes:
    """``value`` with its fields block replaced by text that is not JSON."""
    body = value[8:]
    _, fields_at = struct.unpack_from("<II", body)
    return resealed(body[: 8 + fields_at] + b"not json")


def flipped(value: bytes) -> bytes:
    """``value`` with one byte of its rendering's plan text changed."""
    at = 16 + len(b'{"plans": [{"')
    return value[:at] + bytes([value[at] ^ 0x01]) + value[at + 1:]


#: Tier values a lookup must treat as misses, from a good value of the result.
SPOILED = {
    "not-json-at-all": lambda value: b"not json at all",
    "truncated-by-one-byte": lambda value: value[:-1],
    "flipped-byte-in-rendering": flipped,
    "previous-release-value": lambda value: value[16:],  # the rendering alone
    "fields-not-json": fields_not_json,
}


class TestTieredPlanCache:
    def key(self, query, version=("net", 1), k=2):
        return (query.fingerprint(), version, k, None)

    def test_cross_cache_hit_promotes_into_local(self, bench, cache_server, shared_client):
        query = bench.train_queries[0]
        tier_a = TieredPlanCache(
            ServicePlanCache(8), shared_client(cache_server.address)
        )
        tier_b = TieredPlanCache(
            ServicePlanCache(8), shared_client(cache_server.address)
        )
        result = make_result(bench, query)
        key = self.key(query)
        tier_a.store(key, result)
        assert tier_a.shared_stats()["shared_stores"] == 1

        found = tier_b.lookup(key)
        assert found is not None
        assert [p.fingerprint() for p in found.plans] == [
            p.fingerprint() for p in result.plans
        ]
        assert found.predicted_latencies == result.predicted_latencies
        assert tier_b.shared_stats()["shared_hits"] == 1
        # Promoted into B's local LRU: the next lookup never leaves process.
        assert tier_b.local.contains(key)
        assert tier_b.contains(key)

    def test_invalidate_version_drops_both_tiers(self, bench, cache_server, shared_client):
        tier = TieredPlanCache(
            ServicePlanCache(8), shared_client(cache_server.address)
        )
        old, new = ("net", 1), ("net", 2)
        q0, q1 = bench.train_queries[0], bench.train_queries[1]
        tier.store(self.key(q0, old), make_result(bench, q0))
        tier.store(self.key(q1, new), make_result(bench, q1))
        assert tier.invalidate_version(old) >= 2  # L1 + shared tier
        assert not tier.contains(self.key(q0, old))
        assert tier.contains(self.key(q1, new))
        assert cache_server.stats()["size"] == 1

    def test_degrades_to_local_when_server_dies(self, bench, tmp_path, shared_client):
        server = PlanCacheServer(str(tmp_path / "t.sock"), capacity=8).start()
        tier = TieredPlanCache(ServicePlanCache(8), shared_client(server.address))
        query = bench.train_queries[0]
        key = self.key(query)
        tier.store(key, make_result(bench, query))
        server.close()
        # The local LRU keeps answering; the dead tier is a silent miss.
        assert tier.lookup(key) is not None
        other = self.key(bench.train_queries[1])
        assert tier.lookup(other) is None
        tier.store(other, make_result(bench, bench.train_queries[1]))  # no raise
        assert tier.local.contains(other)
        assert not tier.shared_stats()["transport"]["available"]

    @pytest.mark.parametrize("spoil", list(SPOILED), ids=list(SPOILED))
    def test_corrupt_shared_entry_is_a_miss(self, bench, cache_server, spoil, shared_client):
        query = bench.train_queries[0]
        key = self.key(query)
        result = make_result(bench, query)
        poison = shared_client(cache_server.address)
        poison.put(
            encode_cache_key(key), b"tag", SPOILED[spoil](encode_tier_value(result))
        )
        tier = TieredPlanCache(
            ServicePlanCache(8), shared_client(cache_server.address)
        )
        assert tier.lookup(key) is None
        stats = tier.shared_stats()
        assert stats["decode_failures"] == 1
        assert stats["shared_misses"] == 1
        # A store overwrites the spoiled value: another worker now hits.
        tier.store(key, result)
        reader = TieredPlanCache(ServicePlanCache(8), poison)
        assert reader.lookup(key) == result
        assert reader.shared_stats()["shared_hits"] == 1

    def test_clear_empties_both_tiers(self, bench, cache_server, shared_client):
        tier = TieredPlanCache(
            ServicePlanCache(8), shared_client(cache_server.address)
        )
        query = bench.train_queries[0]
        tier.store(self.key(query), make_result(bench, query))
        tier.clear()
        assert len(tier) == 0
        assert cache_server.stats()["size"] == 0


# ---------------------------------------------------------------------- #
# Cross-service semantics (two services sharing one tier, no forking)
# ---------------------------------------------------------------------- #
class TestCrossServiceSharing:
    def test_plan_computed_by_one_service_hits_on_the_other(
        self, bench, network, cache_server, shared_client
    ):
        # Both services serve the *same* network object — exactly the
        # pre-fork situation, where workers inherit one network and their
        # cache keys (which embed the network's version key) agree.
        service_a = PlannerService(
            network, planner=small_planner(), cache_capacity=32
        )
        service_b = PlannerService(
            network, planner=small_planner(), cache_capacity=32
        )
        service_a.cache = TieredPlanCache(
            service_a.cache, shared_client(cache_server.address)
        )
        service_b.cache = TieredPlanCache(
            service_b.cache, shared_client(cache_server.address)
        )
        try:
            request = PlanRequest(query=bench.train_queries[0], k=2)
            first = service_a.plan(request)
            assert not first.cache_hit
            second = service_b.plan(PlanRequest(query=bench.train_queries[0], k=2))
            assert second.cache_hit
            assert [p.fingerprint() for p in second.plans] == [
                p.fingerprint() for p in first.plans
            ]
            assert service_b.cache.shared_stats()["shared_hits"] == 1
        finally:
            service_a.close()
            service_b.close()

    def test_foreground_requests_survive_cache_server_crash(
        self, bench, network, tmp_path, shared_client, monkeypatch
    ):
        server = PlanCacheServer(str(tmp_path / "crash.sock"), capacity=32).start()
        service = PlannerService(
            network, planner=small_planner(), cache_capacity=32
        )
        monkeypatch.setattr(shared_tier, "RETRY_SECONDS", 0.1)
        service.cache = TieredPlanCache(service.cache, shared_client(server.address))
        try:
            ok = service.plan(PlanRequest(query=bench.train_queries[0], k=2))
            assert ok.plans
            server.close()  # the tier crashes out from under the worker
            for query in bench.train_queries[:3]:
                response = service.plan(PlanRequest(query=query, k=2))
                assert response.plans  # degraded to local-LRU, never failed
            # The local L1 still caches.
            again = service.plan(PlanRequest(query=bench.train_queries[1], k=2))
            assert again.cache_hit
        finally:
            service.close()
            server.close()


# ---------------------------------------------------------------------- #
# Version-keyed invalidation through the ops endpoints
# ---------------------------------------------------------------------- #
class TestPromoteRollbackInvalidation:
    @pytest.fixture()
    def ops_stack(self, bench, network, cache_server, shared_client, tmp_path):
        service = PlannerService(
            network, planner=small_planner(), cache_capacity=32
        )
        service.cache = TieredPlanCache(
            service.cache, shared_client(cache_server.address)
        )
        registry = ModelRegistry(persist_dir=tmp_path / "registry")
        v1 = registry.register(network, source="baseline")
        registry.promote(v1.version)
        successor = network.clone()
        successor.bump_version()
        v2 = registry.register(successor, source="fine-tune")
        gateway = PlanningServer(
            service,
            lifecycle=ModelLifecycle(service, registry, featurizer=bench.featurizer),
        )
        yield {
            "service": service,
            "gateway": gateway,
            "v1": v1.version,
            "v2": v2.version,
        }
        gateway.close()
        service.close()

    def test_promote_invalidates_displaced_version_in_both_tiers(
        self, bench, cache_server, ops_stack
    ):
        service, gateway = ops_stack["service"], ops_stack["gateway"]
        for query in bench.train_queries[:2]:
            assert service.plan(PlanRequest(query=query, k=2)).plans
        assert cache_server.stats()["size"] == 2
        assert len(service.cache) == 2

        status, body = gateway.handle_promote({"version": ops_stack["v2"]})
        assert status == 200
        assert body["serving_version"] == ops_stack["v2"]
        # The displaced version's plans are gone from the shared tier (so no
        # sibling worker can resurrect them) and from the local L1.
        assert cache_server.stats()["size"] == 0
        assert len(service.cache) == 0

    def test_rollback_invalidates_the_rolled_back_version(
        self, bench, cache_server, ops_stack
    ):
        service, gateway = ops_stack["service"], ops_stack["gateway"]
        status, _ = gateway.handle_promote({"version": ops_stack["v2"]})
        assert status == 200
        for query in bench.train_queries[:2]:
            assert service.plan(PlanRequest(query=query, k=2)).plans
        assert cache_server.stats()["size"] == 2

        status, body = gateway.handle_rollback()
        assert status == 200
        assert body["serving_version"] == ops_stack["v1"]
        assert cache_server.stats()["size"] == 0
        assert len(service.cache) == 0


# ---------------------------------------------------------------------- #
# The pre-forked gateway (end to end)
# ---------------------------------------------------------------------- #
def make_worker_factory(bench, network):
    def factory(spec: WorkerSpec) -> PlanningServer:
        service = PlannerService(
            network, planner=small_planner(), cache_capacity=256
        )
        return PlanningServer(
            service,
            queries=bench.all_queries(),
            host=spec.host,
            port=spec.port,
        )

    return factory


SOCKET_MODES = [
    pytest.param(
        True,
        id="reuse-port",
        marks=pytest.mark.skipif(
            not HAS_REUSE_PORT, reason="platform lacks SO_REUSEPORT"
        ),
    ),
    pytest.param(False, id="inherited-fd"),
]


class TestShardedGateway:
    @pytest.mark.parametrize("reuse_port", SOCKET_MODES)
    def test_two_workers_share_port_cache_and_survive_a_kill(
        self, bench, network, reuse_port
    ):
        shard = ShardedGateway(
            make_worker_factory(bench, network),
            num_workers=2,
            reuse_port=reuse_port,
            max_respawns=1,
            health_interval_seconds=0.1,
            drain_grace_seconds=0.05,
        )
        with shard:
            assert shard.alive_workers() == 2
            base = shard.base_url

            # Both workers answer on the one shared port (fresh connection
            # per probe so the kernel is free to pick either worker).
            seen: set[int] = set()
            deadline = time.monotonic() + 30.0
            while seen != {0, 1}:
                assert time.monotonic() < deadline, f"only saw workers {seen}"
                status, body, headers = http("GET", f"{base}/healthz", timeout=5.0)
                assert status == 200
                assert body["status"] == "ok"
                worker_id = body["worker_id"]
                assert worker_id in (0, 1)
                assert headers.get("X-Repro-Worker") == str(worker_id)
                seen.add(worker_id)

            # A plan computed by one worker becomes a shared-tier hit when
            # the other worker sees the same query.
            payload = {"query": bench.train_queries[0].name, "k": 2}
            plan_workers: set[int] = set()
            fingerprints: set[tuple] = set()
            deadline = time.monotonic() + 30.0
            while plan_workers != {0, 1}:
                assert time.monotonic() < deadline, (
                    f"plan answered only by workers {plan_workers}"
                )
                status, body, headers = http(
                    "POST", f"{base}/v1/plan", payload, timeout=10.0
                )
                assert status == 200
                assert body["plans"]
                plan_workers.add(int(headers["X-Repro-Worker"]))
                fingerprints.add(
                    tuple(sorted(str(plan) for plan in body["plans"]))
                )
            assert len(fingerprints) == 1  # both workers serve the same plans
            tier = shard.shared_cache_stats()
            assert tier is not None
            assert tier["inserts"] >= 1
            assert tier["hits"] >= 1

            # Kill a worker outright: the supervisor respawns it on the same
            # slot and the shard keeps answering throughout.
            victim = shard.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while shard.worker_pids()[0] == victim or shard.alive_workers() < 2:
                assert time.monotonic() < deadline, "worker was never respawned"
                time.sleep(0.05)
            status, body, _ = http("GET", f"{base}/healthz", timeout=5.0)
            assert status == 200
            stats = shard.stats()
            assert stats["respawns_used"] == 1
            assert stats["alive_workers"] == 2
            assert stats["reuse_port"] is reuse_port

        assert shard.alive_workers() == 0  # close() drained every worker

    def test_respawn_budget_is_enforced(self, bench, network):
        shard = ShardedGateway(
            make_worker_factory(bench, network),
            num_workers=1,
            max_respawns=0,
            health_interval_seconds=0.1,
            drain_grace_seconds=0.05,
        )
        with shard:
            os.kill(shard.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while shard.alive_workers() > 0:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(0.3)  # give the supervisor a few polls to (not) respawn
            assert shard.alive_workers() == 0
            assert shard.stats()["respawns_used"] == 0

    def test_single_worker_shard_serves_without_shared_cache(self, bench, network):
        shard = ShardedGateway(
            make_worker_factory(bench, network),
            num_workers=1,
            shared_cache=False,
            drain_grace_seconds=0.05,
        )
        with shard:
            status, body, _ = http("GET", f"{shard.base_url}/healthz", timeout=5.0)
            assert status == 200
            assert body["worker_id"] == 0
            assert shard.shared_cache_stats() is None
            payload = {"query": bench.train_queries[0].name, "k": 2}
            status, body, _ = http(
                "POST", f"{shard.base_url}/v1/plan", payload, timeout=10.0
            )
            assert status == 200
            assert body["plans"]

    def test_metrics_port_serves_fleet_health_and_profile(self, bench, network):
        """The supervisor's own port answers ``/healthz`` and ``/v1/profile``
        from what the workers push, and the fleet is as healthy as its
        sickest reporter: ``repro_health_score`` merges with ``min``."""
        shard = ShardedGateway(
            make_worker_factory(bench, network),
            num_workers=2,
            max_respawns=0,
            drain_grace_seconds=0.05,
        )
        with shard:
            base = shard.metrics_url.removesuffix("/metrics")
            deadline = time.monotonic() + 20.0
            while True:
                status, health, _ = http("GET", f"{base}/healthz", timeout=5.0)
                assert status == 200
                if health["workers_reporting"] == 2:
                    break
                assert time.monotonic() < deadline, f"workers never reported: {health}"
                time.sleep(0.05)
            assert health["role"] == "shard-supervisor"
            assert health["alive_workers"] == 2
            assert health["status"] == "ok"

            status, profile, _ = http("GET", f"{base}/v1/profile", timeout=5.0)
            assert status == 200
            assert profile["role"] == "shard-supervisor"
            assert profile["workers_profiled"] == 2
            assert "flamegraph" in profile

            def push_health(score: float) -> None:
                registry = MetricsRegistry()
                registry.gauge(
                    "repro_health_score", "health", aggregation="min"
                ).set(score)
                client = TelemetryPushClient(
                    shard.telemetry_server.address, 99, registry.snapshot
                )
                try:
                    assert client.push()
                finally:
                    client.close()

            for score, expected in ((0.5, "degraded"), (0.3, "unhealthy")):
                push_health(score)
                status, health, _ = http("GET", f"{base}/healthz", timeout=5.0)
                assert status == 200
                assert health["status"] == expected
                assert health["health_score"] == score
                assert health["workers_reporting"] == 3

    def test_failed_start_raises_at_once_and_releases_everything(self):
        """``__exit__`` never runs when ``__enter__`` raises, so ``start`` itself
        must not wait out dead workers nor leave anything it opened behind."""

        def broken_factory(spec: WorkerSpec) -> PlanningServer:
            raise ValueError("this factory cannot build a gateway")

        def shard_dirs() -> set:
            return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-shard-*")))

        def channel_threads() -> list:
            return [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith(("plan-cache", "ops-bus", "telemetry-sink"))
            ]

        dirs_before = shard_dirs()
        shard = ShardedGateway(broken_factory, num_workers=2, drain_grace_seconds=0.05)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=r"dead: \[\('repro-gateway-worker-\d', 1\)"):
            shard.start()
        assert time.monotonic() - started < 5.0
        assert shard.alive_workers() == 0
        assert shard_dirs() == dirs_before
        await_until(lambda: not channel_threads(), message="channel threads to end")
        with pytest.raises(RuntimeError):
            shard.start()  # a failed start leaves the gateway closed

    def test_invalid_construction(self, bench, network):
        factory = make_worker_factory(bench, network)
        with pytest.raises(ValueError):
            ShardedGateway(factory, num_workers=0)
        with pytest.raises(ValueError):
            ShardedGateway(factory, num_workers=2, max_respawns=-1)


# ---------------------------------------------------------------------- #
# The ops-coherence bus (unit: no forking)
# ---------------------------------------------------------------------- #
def await_until(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out awaiting {message}"
        time.sleep(0.01)


class TestOpsChannel:
    def test_publish_reaches_peers_but_never_echoes(self, tmp_path):
        server = OpsBroadcastServer(str(tmp_path / "ops.sock")).start()
        try:
            received_a: list = []
            received_b: list = []
            client_a = OpsChannelClient(server.address, 0, received_a.append).start()
            client_b = OpsChannelClient(server.address, 1, received_b.append).start()
            # The bus counts a connection once accepted, but tags it with its
            # worker id only once it has read that peer's hello: wait for the
            # announced workers, not the sockets.
            await_until(
                lambda: server.stats()["workers"] == [0, 1], message="both hellos"
            )
            assert client_a.publish({"op": "promote", "version": 7})
            await_until(lambda: len(received_b) == 1, message="delivery to peer")
            assert received_b == [{"op": "promote", "version": 7}]
            assert received_a == []  # the publisher is never echoed
            stats = server.stats()
            assert sorted(stats["workers"]) == [0, 1]
            assert stats["published"] == 1
            assert stats["delivered"] == 1
            assert stats["delivery_errors"] == 0
            client_a.close()
            client_b.close()
        finally:
            server.close()

    def test_hello_must_announce_an_integer_worker_id(self, tmp_path):
        """The bus sorts announced ids for its stats: a peer announcing a
        string beside one announcing an int must not break them."""
        server = OpsBroadcastServer(str(tmp_path / "ops-hello.sock")).start()
        try:
            received: list = []
            proper = OpsChannelClient(server.address, 0, received.append).start()
            odd = OpsChannelClient(server.address, "one", lambda op: None).start()
            await_until(
                lambda: server.stats()["workers"] == [0]
                and server.stats()["connections"] == 2,
                message="the proper hello and both connections",
            )
            # Ordered after both hellos on its connection: once the op
            # arrives, the bus has seen the odd hello.
            assert odd.publish({"op": "rollback"})
            await_until(lambda: len(received) == 1, message="relay from the odd peer")
            stats = server.stats()
            assert stats["workers"] == [0]
            assert stats["connections"] == 2
            proper.close()
            odd.close()
        finally:
            server.close()

    def test_publish_degrades_when_bus_is_gone(self, tmp_path):
        server = OpsBroadcastServer(str(tmp_path / "ops2.sock")).start()
        client = OpsChannelClient(server.address, 0, lambda op: None).start()
        server.close()
        time.sleep(0.05)
        assert client.publish({"op": "rollback"}) is False  # no raise
        client.close()

    def test_callback_errors_do_not_kill_the_listener(self, tmp_path):
        server = OpsBroadcastServer(str(tmp_path / "ops3.sock")).start()
        try:
            received: list = []

            def flaky(message):
                if not received:
                    received.append(message)
                    raise RuntimeError("first delivery explodes")
                received.append(message)

            publisher = OpsChannelClient(server.address, 0, lambda op: None).start()
            listener = OpsChannelClient(server.address, 1, flaky).start()
            await_until(
                lambda: server.stats()["connections"] == 2, message="registration"
            )
            publisher.publish({"op": "rollback"})
            publisher.publish({"op": "promote", "version": 3})
            await_until(lambda: len(received) == 2, message="second delivery")
            publisher.close()
            listener.close()
        finally:
            server.close()

    def test_gateways_stay_coherent_through_the_bus(self, bench, network, tmp_path):
        """Two in-process gateways wired to one bus: a promote handled by one
        is applied by the other (and a rollback undoes it everywhere)."""
        server = OpsBroadcastServer(str(tmp_path / "ops4.sock")).start()
        stacks = []
        try:
            candidate = network.clone()
            for worker_id in range(2):
                service = PlannerService(
                    network, planner=small_planner()
                )
                registry = ModelRegistry()
                baseline = registry.register(network, source="baseline")
                registry.promote(baseline.version)
                registry.register(candidate, source="candidate")
                gateway = PlanningServer(
                    service,
                    lifecycle=ModelLifecycle(
                        service, registry, featurizer=bench.featurizer
                    ),
                    queries=bench.all_queries(),
                    worker_id=worker_id,
                )
                client = OpsChannelClient(
                    server.address, worker_id, gateway.apply_ops_message
                ).start()
                gateway.ops_channel = client
                stacks.append((gateway, registry, service, client))
            await_until(
                lambda: server.stats()["connections"] == 2, message="registration"
            )

            gateway_a, registry_a = stacks[0][0], stacks[0][1]
            registry_b = stacks[1][1]
            status, body = gateway_a.handle_promote({"version": 2})
            assert status == 200, body
            assert registry_a.serving_version == 2
            await_until(
                lambda: registry_b.serving_version == 2,
                message="peer applying the promote",
            )

            status, body = gateway_a.handle_rollback()
            assert status == 200, body
            assert registry_a.serving_version == 1
            await_until(
                lambda: registry_b.serving_version == 1,
                message="peer applying the rollback",
            )
            # Re-broadcast suppression: each op was published exactly once.
            assert server.stats()["published"] == 2
        finally:
            for gateway, _, service, client in stacks:
                client.close()
                gateway.close()
                service.close()
            server.close()


# ---------------------------------------------------------------------- #
# Cross-worker ops coherence, end to end through the forked shard
# ---------------------------------------------------------------------- #
def make_versioned_worker_factory(bench, network, candidate):
    """Workers with a registry holding v1 (serving) and v2 (the candidate)."""

    def factory(spec: WorkerSpec) -> PlanningServer:
        service = PlannerService(
            network, planner=small_planner(), cache_capacity=256
        )
        registry = ModelRegistry()
        baseline = registry.register(network, source="baseline")
        registry.promote(baseline.version)
        registry.register(candidate, source="candidate")
        return PlanningServer(
            service,
            lifecycle=ModelLifecycle(service, registry, featurizer=bench.featurizer),
            queries=bench.all_queries(),
            host=spec.host,
            port=spec.port,
        )

    return factory


class TestShardedOpsCoherence:
    def await_all_serving(self, base_url, version, num_workers=2, timeout=30.0):
        """Poll /healthz on fresh connections until every worker reports
        ``version`` as serving; returns the set of agreeing worker ids."""
        agreed: set[int] = set()
        deadline = time.monotonic() + timeout
        while agreed != set(range(num_workers)) and time.monotonic() < deadline:
            status, body, headers = http("GET", f"{base_url}/healthz", timeout=5.0)
            assert status == 200
            if body["serving_version"] == version:
                agreed.add(int(headers["X-Repro-Worker"]))
        return agreed

    def test_promote_and_rollback_reach_every_worker(self, bench, network):
        candidate = network.clone()
        shard = ShardedGateway(
            make_versioned_worker_factory(bench, network, candidate),
            num_workers=2,
            health_interval_seconds=0.1,
            drain_grace_seconds=0.05,
        )
        with shard:
            base = shard.base_url
            # The kernel routes this to ONE worker; the ops bus must carry
            # the swap to the other.
            status, body, _ = http(
                "POST", f"{base}/v1/models/promote", {"version": 2}
            )
            assert status == 200, body
            assert self.await_all_serving(base, 2) == {0, 1}

            ops = shard.stats()["ops_channel"]
            assert ops is not None
            assert ops["published"] >= 1
            assert ops["delivered"] >= 1

            status, body, _ = http("POST", f"{base}/v1/models/rollback")
            assert status == 200, body
            assert self.await_all_serving(base, 1) == {0, 1}

    def test_bus_can_be_disabled(self, bench, network):
        shard = ShardedGateway(
            make_worker_factory(bench, network),
            num_workers=1,
            ops_channel=False,
            drain_grace_seconds=0.05,
        )
        with shard:
            status, _, _ = http("GET", f"{shard.base_url}/healthz", timeout=5.0)
            assert status == 200
            assert shard.stats()["ops_channel"] is None
