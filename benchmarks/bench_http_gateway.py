"""HTTP gateway load benchmarks: single-process latency and sharded scale-out.

Not a paper figure — this measures the serving tier added on top of the
in-process stack.  Two benches share one keep-alive load harness:

- ``bench_http_gateway`` boots a single :class:`~repro.server.app.PlanningServer`
  on an ephemeral loopback port, drives it with multi-threaded load clients
  (every request a real HTTP exchange over a **reused** keep-alive
  connection, queries referenced by name), and compares against the identical
  workload planned through the in-process ``PlannerService`` directly;
- ``bench_sharded_gateway_sweep`` boots a
  :class:`~repro.server.sharding.ShardedGateway` at 1/2/4 workers over the
  same workload and measures warm QPS, per-worker QPS, p50/p99 and the
  shared plan-cache tier's warm hit rate at each worker count.

Headline figures land in ``benchmark.extra_info`` so ``--benchmark-json``
artifacts expose them to CI (``benchmarks/check_regression.py`` gates on
them): ``http_warm_p50_ms``, ``http_warm_p99_ms``, ``http_qps``,
``failed_requests`` (must be 0), ``telemetry_overhead_pct`` (the traced vs
tracing-disabled p50 delta as a share of the served warm p50, gated at
5%), and per worker count ``qps_w{N}``,
``qps_per_worker_w{N}``, ``p50_ms_w{N}``, ``p99_ms_w{N}``, ``failed_w{N}``,
``shared_cache_hit_rate`` plus ``qps_scaling_{max}w_vs_1w``.  The scaling
bar (≥1.6x at 4 workers) is asserted only on runners with ≥4 CPUs — a
1-CPU container cannot scale out and measures ~1x.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

from benchmarks.conftest import run_once
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.planning.envelope import PlanRequest
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer
from repro.server.sharding import ShardedGateway, WorkerSpec
from repro.service.service import PlannerService
from repro.telemetry import SamplingProfiler
from repro.telemetry import enabled as telemetry_enabled
from repro.telemetry import set_enabled, start_trace
from repro.workloads.benchmark import make_job_benchmark

#: CI smoke mode (REPRO_BENCH_QUICK=1) shrinks the workload further.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

NUM_CLIENTS = 2 if QUICK else 4
REQUESTS_PER_CLIENT = 20 if QUICK else 100
WORKER_COUNTS = (1, 2, 4)
SWEEP_REQUESTS_PER_CLIENT = 15 if QUICK else 60

#: The 4-vs-1-worker QPS bar, enforced only where the hardware can scale.
MIN_SCALING = 1.6
MIN_SCALING_CPUS = 4


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(int(fraction * len(ordered)), len(ordered) - 1)
    return ordered[index]


class KeepAliveClient:
    """A load client that reuses one HTTP/1.1 connection across requests.

    The previous harness paid a fresh TCP handshake per request, which both
    understated gateway QPS and (for the sharded gateway) re-rolled the
    worker every request; a keep-alive connection measures steady-state
    traffic and pins each client to whichever worker accepted it — exactly
    how a real connection-pooling client behaves.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def post_plan(self, payload: dict) -> dict:
        body = json.dumps(payload).encode("utf-8")
        try:
            self._conn.request(
                "POST", "/v1/plan", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            data = response.read()
            if response.status != 200:
                raise RuntimeError(f"HTTP {response.status}: {data[:200]!r}")
            return json.loads(data)
        except Exception:
            # Drop the (possibly desynchronised) connection; the next request
            # reconnects — keep-alive is an optimisation, not a correctness
            # dependency.
            self._conn.close()
            raise

    def close(self) -> None:
        self._conn.close()


def _make_workload():
    bundle = make_job_benchmark(
        fact_rows=300, num_queries=8, num_templates=4, test_size=2,
        seed=0, size_range=(3, 4),
    )
    network = ValueNetwork(
        bundle.featurizer,
        ValueNetworkConfig(
            query_hidden=16, query_embedding=8, tree_channels=(16, 8),
            head_hidden=8, seed=0,
        ),
    )
    return bundle, list(bundle.train_queries), network


def _small_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False)


def _drive(
    host: str,
    port: int,
    queries,
    num_clients: int,
    requests_per_client: int,
) -> tuple[list[float], float, int]:
    """Concurrent keep-alive load; returns (latencies, seconds, failures)."""
    latencies_per_client: list[list[float]] = [[] for _ in range(num_clients)]
    failures = [0] * num_clients

    def client(slot: int) -> None:
        connection = KeepAliveClient(host, port)
        try:
            for index in range(requests_per_client):
                query = queries[(slot + index) % len(queries)]
                started = time.perf_counter()
                try:
                    body = connection.post_plan({"query": query.name, "k": 2})
                    if not body["plans"]:
                        failures[slot] += 1
                except Exception:  # noqa: BLE001 - counted, not hidden
                    failures[slot] += 1
                latencies_per_client[slot].append(time.perf_counter() - started)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, args=(slot,)) for slot in range(num_clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    latencies = [value for chunk in latencies_per_client for value in chunk]
    return latencies, elapsed, sum(failures)


# ---------------------------------------------------------------------- #
# Single-process gateway vs in-process
# ---------------------------------------------------------------------- #
def _run_gateway_load() -> dict:
    _, queries, network = _make_workload()
    service = PlannerService(network, planner=_small_planner())
    # The gateway's own profiler acquisition is disabled so the dedicated
    # profiler-overhead measurement below controls exactly one sampler.
    gateway = PlanningServer(service, queries=queries, profile=False).start()
    try:
        host, port = "127.0.0.1", gateway.port

        # Cold pass: every distinct query planned once over one connection.
        cold_client = KeepAliveClient(host, port)
        cold_latencies: list[float] = []
        try:
            for query in queries:
                started = time.perf_counter()
                body = cold_client.post_plan({"query": query.name, "k": 2})
                cold_latencies.append(time.perf_counter() - started)
                assert body["plans"], f"no plans for {query.name}"
        finally:
            cold_client.close()

        # Warm pass: concurrent clients over the (now cached) workload.
        warm_latencies, warm_seconds, failed = _drive(
            host, port, queries, NUM_CLIENTS, REQUESTS_PER_CLIENT
        )

        # In-process warm pass over the identical request stream.
        inproc_latencies: list[float] = []
        for index in range(NUM_CLIENTS * REQUESTS_PER_CLIENT):
            query = queries[index % len(queries)]
            started = time.perf_counter()
            response = service.plan(PlanRequest(query=query, k=2))
            inproc_latencies.append(time.perf_counter() - started)
            assert response.plans

        # Telemetry overhead: the identical warm stream, once fully traced
        # (every request inside a start_trace, as the HTTP layer does) and
        # once with tracing disabled.  start_trace stays in both loops — it
        # is the telemetry cost under test, a no-op when disabled.
        def traced_pass() -> list[float]:
            latencies: list[float] = []
            for index in range(NUM_CLIENTS * REQUESTS_PER_CLIENT):
                query = queries[index % len(queries)]
                started = time.perf_counter()
                with start_trace("/v1/plan"):
                    service.plan(PlanRequest(query=query, k=2))
                latencies.append(time.perf_counter() - started)
            return latencies

        was_enabled = telemetry_enabled()
        try:
            set_enabled(True)
            telemetry_on = traced_pass()
            set_enabled(False)
            telemetry_off = traced_pass()
        finally:
            set_enabled(was_enabled)

        # Continuous-profiler overhead: the identical warm in-process stream
        # with the sampling profiler running vs stopped (same measurement
        # shape as the telemetry overhead above — the delta is expressed
        # against the served warm p50 the watchtower actually profiles).
        def plain_pass() -> list[float]:
            latencies: list[float] = []
            for index in range(NUM_CLIENTS * REQUESTS_PER_CLIENT):
                query = queries[index % len(queries)]
                started = time.perf_counter()
                service.plan(PlanRequest(query=query, k=2))
                latencies.append(time.perf_counter() - started)
            return latencies

        profiler = SamplingProfiler(process="bench-gateway")
        profiler.start()
        try:
            profiler_on = plain_pass()
        finally:
            profiler.stop()
        profiler_samples = profiler.snapshot()["samples"]
        profiler_off = plain_pass()

        metrics = service.metrics()
    finally:
        gateway.close()
        service.close()

    http_p50 = _percentile(warm_latencies, 0.50)
    inproc_p50 = _percentile(inproc_latencies, 0.50)
    on_p50 = _percentile(telemetry_on, 0.50)
    off_p50 = _percentile(telemetry_off, 0.50)
    # The traced-vs-untraced delta is measured in-process (microsecond-stable,
    # no HTTP jitter) and expressed against the served warm p50 — the request
    # path the trace actually wraps.  A raw on/off ratio on the in-process
    # path would divide span bookkeeping by a ~50us cache hit and report
    # noise, not the cost a caller sees.
    overhead_ms = max(0.0, (on_p50 - off_p50) * 1e3)
    overhead_pct = overhead_ms / max(http_p50 * 1e3, 1e-9) * 100.0
    prof_on_p50 = _percentile(profiler_on, 0.50)
    prof_off_p50 = _percentile(profiler_off, 0.50)
    profiler_overhead_ms = max(0.0, (prof_on_p50 - prof_off_p50) * 1e3)
    profiler_overhead_pct = (
        profiler_overhead_ms / max(http_p50 * 1e3, 1e-9) * 100.0
    )
    return {
        "queries": len(queries),
        "clients": NUM_CLIENTS,
        "http_requests": len(warm_latencies) + len(cold_latencies),
        "failed_requests": failed,
        "http_cold_p50_ms": _percentile(cold_latencies, 0.50) * 1e3,
        "http_warm_p50_ms": http_p50 * 1e3,
        "http_warm_p99_ms": _percentile(warm_latencies, 0.99) * 1e3,
        "http_qps": len(warm_latencies) / max(warm_seconds, 1e-9),
        "inproc_warm_p50_ms": inproc_p50 * 1e3,
        "inproc_warm_p99_ms": _percentile(inproc_latencies, 0.99) * 1e3,
        "http_overhead_p50_ms": (http_p50 - inproc_p50) * 1e3,
        "service_cache_hit_rate": metrics.hit_rate,
        "telemetry_on_p50_ms": on_p50 * 1e3,
        "telemetry_off_p50_ms": off_p50 * 1e3,
        "telemetry_overhead_ms": overhead_ms,
        "telemetry_overhead_pct": overhead_pct,
        "profiler_on_p50_ms": prof_on_p50 * 1e3,
        "profiler_off_p50_ms": prof_off_p50 * 1e3,
        "profiler_overhead_ms": profiler_overhead_ms,
        "profiler_overhead_pct": profiler_overhead_pct,
        "profiler_samples": profiler_samples,
    }


def bench_http_gateway(benchmark):
    result = run_once(benchmark, _run_gateway_load)
    print()
    print(
        f"gateway load: {result['http_requests']} HTTP requests from "
        f"{result['clients']} keep-alive clients, "
        f"{result['failed_requests']} failed"
    )
    print(
        f"warm latency: http p50 {result['http_warm_p50_ms']:.2f}ms / "
        f"p99 {result['http_warm_p99_ms']:.2f}ms at "
        f"{result['http_qps']:.0f} q/s; in-process p50 "
        f"{result['inproc_warm_p50_ms']:.2f}ms "
        f"(HTTP overhead {result['http_overhead_p50_ms']:.2f}ms/request)"
    )
    print(
        f"telemetry: traced p50 {result['telemetry_on_p50_ms']:.2f}ms vs "
        f"disabled p50 {result['telemetry_off_p50_ms']:.2f}ms "
        f"(+{result['telemetry_overhead_ms']:.3f}ms, "
        f"{result['telemetry_overhead_pct']:.2f}% of the served warm p50)"
    )
    print(
        f"profiler: sampled p50 {result['profiler_on_p50_ms']:.2f}ms vs "
        f"unsampled p50 {result['profiler_off_p50_ms']:.2f}ms over "
        f"{result['profiler_samples']:.0f} samples "
        f"(+{result['profiler_overhead_ms']:.3f}ms, "
        f"{result['profiler_overhead_pct']:.2f}% of the served warm p50)"
    )
    assert result["failed_requests"] == 0
    for key, value in result.items():
        benchmark.extra_info[key] = round(float(value), 4)


# ---------------------------------------------------------------------- #
# Sharded gateway: worker-count sweep
# ---------------------------------------------------------------------- #
def _run_sharded_sweep() -> dict:
    bundle, queries, network = _make_workload()

    def factory(spec: WorkerSpec) -> PlanningServer:
        service = PlannerService(
            network, planner=_small_planner(), cache_capacity=512
        )
        return PlanningServer(
            service, queries=bundle.all_queries(), host=spec.host, port=spec.port
        )

    report: dict = {"available_cpus": os.cpu_count() or 1}
    per_count: dict[int, dict] = {}
    for workers in WORKER_COUNTS:
        shard = ShardedGateway(
            factory,
            num_workers=workers,
            max_respawns=1,
            health_interval_seconds=0.5,
            drain_grace_seconds=0.05,
        )
        with shard:
            host, port = "127.0.0.1", shard.port
            num_clients = max(NUM_CLIENTS, 2 * workers)

            # Cold pass: one connection (pinned to one worker) fills the
            # shared tier, so the warm pass measures cross-worker hits.
            _, _, cold_failed = _drive(host, port, queries, 1, len(queries))
            before = shard.shared_cache_stats() or {}

            warm_latencies, warm_seconds, warm_failed = _drive(
                host, port, queries, num_clients, SWEEP_REQUESTS_PER_CLIENT
            )
            after = shard.shared_cache_stats() or {}

        # Warm-pass delta of the tier counters: every lookup the workers'
        # local LRUs could not answer should have hit the shared tier.
        hits = after.get("hits", 0) - before.get("hits", 0)
        misses = after.get("misses", 0) - before.get("misses", 0)
        lookups = hits + misses
        # A single worker warms its own L1 on the cold pass and never needs
        # the tier again; no lookups means nothing was shared-cache-missed.
        hit_rate = hits / lookups if lookups else 1.0
        qps = len(warm_latencies) / max(warm_seconds, 1e-9)
        per_count[workers] = {
            "qps": qps,
            "qps_per_worker": qps / workers,
            "p50_ms": _percentile(warm_latencies, 0.50) * 1e3,
            "p99_ms": _percentile(warm_latencies, 0.99) * 1e3,
            "failed": cold_failed + warm_failed,
            "shared_cache_hit_rate": hit_rate,
            "clients": num_clients,
        }

    for workers, row in per_count.items():
        report[f"qps_w{workers}"] = row["qps"]
        report[f"qps_per_worker_w{workers}"] = row["qps_per_worker"]
        report[f"p50_ms_w{workers}"] = row["p50_ms"]
        report[f"p99_ms_w{workers}"] = row["p99_ms"]
        report[f"failed_w{workers}"] = row["failed"]
        report[f"shared_cache_hit_rate_w{workers}"] = row["shared_cache_hit_rate"]
    report["failed_requests"] = sum(row["failed"] for row in per_count.values())
    report["shared_cache_hit_rate"] = min(
        row["shared_cache_hit_rate"]
        for workers, row in per_count.items()
        if workers > 1
    )
    top = max(WORKER_COUNTS)
    report[f"qps_scaling_{top}w_vs_1w"] = (
        per_count[top]["qps"] / max(per_count[1]["qps"], 1e-9)
    )
    return report


def bench_sharded_gateway_sweep(benchmark):
    result = run_once(benchmark, _run_sharded_sweep)
    top = max(WORKER_COUNTS)
    scaling = result[f"qps_scaling_{top}w_vs_1w"]
    print()
    print(
        f"sharded gateway sweep on {result['available_cpus']} CPUs "
        f"({'quick' if QUICK else 'full'} mode):"
    )
    for workers in WORKER_COUNTS:
        print(
            f"  {workers} worker(s): {result[f'qps_w{workers}']:.0f} q/s "
            f"({result[f'qps_per_worker_w{workers}']:.0f}/worker), "
            f"p50 {result[f'p50_ms_w{workers}']:.2f}ms / "
            f"p99 {result[f'p99_ms_w{workers}']:.2f}ms, "
            f"{result[f'failed_w{workers}']} failed, "
            f"tier hit rate {result[f'shared_cache_hit_rate_w{workers}']:.2f}"
        )
    print(
        f"  scaling {top}w vs 1w: {scaling:.2f}x "
        f"(bar {MIN_SCALING}x enforced at >={MIN_SCALING_CPUS} CPUs); "
        f"warm shared-cache hit rate {result['shared_cache_hit_rate']:.2f}"
    )
    assert result["failed_requests"] == 0
    assert result["shared_cache_hit_rate"] >= 0.9
    if result["available_cpus"] >= MIN_SCALING_CPUS:
        assert scaling >= MIN_SCALING, (
            f"{top}-worker QPS scaled only {scaling:.2f}x over 1 worker"
        )
    for key, value in result.items():
        benchmark.extra_info[key] = round(float(value), 4)
