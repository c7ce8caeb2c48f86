"""Serve the planning stack over HTTP: the full gateway, end to end.

Builds a small JOB-like benchmark, stands up the serving stack — planner
service, persisted model registry, live-traffic shadower — and boots the
stdlib-only HTTP gateway.  In ``--smoke`` mode the script then exercises the
API against itself (plan by name, plan a structural query, metrics, models,
promote + automatic-shadow arming, rollback) and exits; without it the
gateway serves until interrupted.

Run with::

    python examples/serve_http.py --smoke            # self-exercise and exit
    python examples/serve_http.py --port 8080        # serve until Ctrl-C

With ``--persist-dir``, a restart resumes the last promoted model::

    python examples/serve_http.py --persist-dir /tmp/repro-models --smoke

With ``--learn``, the gateway closes the paper's on-policy loop against its
own live traffic: every served plan is recorded by an
:class:`~repro.experience.ExperienceSink`, costed and replayed off the hot
path, and an :class:`~repro.experience.OnlineTrainerLoop` autonomously runs
fine-tune → shadow-gate → promote rounds while requests keep flowing (smoke
mode then drives traffic until at least one round lands and prints
``GET /v1/experience``)::

    python examples/serve_http.py --smoke --learn

With ``--workers N`` (N > 1) the script boots the pre-fork
:class:`~repro.server.ShardedGateway` instead: N worker processes share one
listening port, a cross-process plan-cache tier and an ops-coherence bus.
Smoke mode then checks that every worker answers, that a plan computed by
one worker is a shared cache hit for the others, and that a promote (and a
rollback) posted to whichever worker the kernel picks is broadcast until
every worker serves the same version::

    python examples/serve_http.py --smoke --workers 2

With ``--log-json`` every gateway logs one JSON access line per request on
stderr.  Smoke mode then captures the process's stderr, forked workers'
included, and checks that those lines parse; with ``--workers N`` at least
one access line must come from a worker::

    python examples/serve_http.py --smoke --log-json
    python examples/serve_http.py --smoke --workers 2 --log-json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.costmodel.cout import CoutCostModel
from repro.experience import OnlineTrainerLoop
from repro.lifecycle import (
    LifecycleError,
    ModelLifecycle,
    ModelRegistry,
    ShadowEvaluator,
)
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.planning import PlannerRegistry
from repro.plans.validation import validate_plan
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer, ShardedGateway, TrafficShadower
from repro.server.wire import plan_from_json_dict, query_to_json_dict
from repro.service.service import PlannerService
from repro.sql.query import Query
from repro.workloads.benchmark import make_job_benchmark


@contextlib.contextmanager
def captured_stderr():
    """Point file descriptor 2 at a temporary file, so what every process
    forked or spawned meanwhile writes lands there too.  On exit restore it
    and copy what was written to the real stderr; the yielded list then
    holds those lines."""
    lines: list[str] = []
    sys.stderr.flush()
    saved = os.dup(2)
    with tempfile.TemporaryFile() as capture:
        os.dup2(capture.fileno(), 2)
        try:
            yield lines
        finally:
            sys.stderr.flush()
            os.dup2(saved, 2)
            os.close(saved)
            capture.seek(0)
            written = capture.read()
            sys.stderr.buffer.write(written)
            sys.stderr.flush()
            lines.extend(written.decode("utf-8", "replace").splitlines())


def check_json_log(lines: list[str], from_worker: bool) -> None:
    """Assert that at least one stderr line is a JSON log record and, when
    ``from_worker``, that a forked worker wrote an access line."""
    records = []
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and {"ts", "level", "message"} <= record.keys():
            records.append(record)
    assert records, f"--log-json: none of {len(lines)} stderr lines is a JSON log record"
    print(f"log-json: {len(records)} JSON log lines, e.g. {records[0]['message']!r}")
    if from_worker:
        access = [
            record for record in records
            if record.get("logger") == "repro.gateway" and "worker" in record
        ]
        assert access, "--log-json: no forked worker wrote a JSON access line"
        workers = sorted({record["worker"] for record in access})
        print(f"log-json: {len(access)} access lines from workers {workers}")


def http(method: str, url: str, payload: dict | None = None) -> tuple[int, dict]:
    """One JSON exchange against the gateway."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def fetch_text(url: str) -> tuple[int, str]:
    """One GET returning the raw text body (for /metrics)."""
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read().decode("utf-8")


def smoke(base_url: str, query_names: list[str]) -> None:
    """Exercise every endpoint once and print what happened."""
    status, body = http("GET", f"{base_url}/healthz")
    print(f"GET /healthz -> {status}: serving v{body['serving_version']}")

    status, body = http("POST", f"{base_url}/v1/plan", {"query": query_names[0], "k": 2})
    print(
        f"POST /v1/plan ({query_names[0]!r}) -> {status}: "
        f"{len(body['plans'])} plans, best predicted "
        f"{body['predicted_latencies'][0]}"
    )

    status, body = http(
        "POST", f"{base_url}/v1/plan_many",
        {"requests": [{"query": name} for name in query_names]},
    )
    print(f"POST /v1/plan_many -> {status}: {len(body['results'])} results")

    status, body = http("GET", f"{base_url}/v1/metrics")
    default = body["planners"]["default"]
    print(
        f"GET /v1/metrics -> {status}: {default['requests']} requests, "
        f"{default['cache_hits']} cache hits, shadow observed "
        f"{body['shadow']['observed'] if body['shadow'] else 0}"
    )

    status, text = fetch_text(f"{base_url}/metrics")
    samples = [line for line in text.splitlines() if line and not line.startswith("#")]
    print(f"GET /metrics -> {status}: {len(samples)} samples in Prometheus text")

    status, text = fetch_text(f"{base_url}/v1/metrics/stream?max_events=1")
    frames = [line for line in text.splitlines() if line.startswith("event: ")]
    assert frames == ["event: metrics"], f"metrics stream sent {frames}"
    print(f"GET /v1/metrics/stream?max_events=1 -> {status}: one metrics frame")

    status, body = http("GET", f"{base_url}/v1/traces")
    print(
        f"GET /v1/traces -> {status}: {body['recorded']} traces recorded, "
        f"{len(body['traces'])} in the ring"
    )
    if body["traces"]:
        trace_id = body["traces"][0]["trace_id"]
        status, single = http("GET", f"{base_url}/v1/traces/{trace_id}")
        print(
            f"GET /v1/traces/{trace_id} -> {status}: "
            f"{single['trace']['path']} took {single['trace']['duration_ms']}ms"
        )

    status, body = http("GET", f"{base_url}/v1/alerts")
    print(
        f"GET /v1/alerts -> {status}: {len(body['objectives'])} SLOs watched, "
        f"{len(body['firing'])} firing, {body['evaluations']} evaluations"
    )

    status, body = http("GET", f"{base_url}/v1/profile")
    profile = body["profile"]
    print(
        f"GET /v1/profile -> {status}: {profile.get('samples', 0)} stack "
        f"samples, {len(profile.get('stacks', {}))} distinct stacks, "
        f"flamegraph root value {body['flamegraph']['value']}"
    )

    status, body = http("GET", f"{base_url}/v1/models")
    print(
        f"GET /v1/models -> {status}: versions {body['versions']}, "
        f"serving v{body['serving_version']}"
    )
    candidates = [v for v in body["versions"] if v != body["serving_version"]]
    if candidates:
        target = candidates[-1]
        status, body = http(
            "POST", f"{base_url}/v1/models/promote", {"version": target}
        )
        print(
            f"POST /v1/models/promote v{target} -> {status}: serving "
            f"v{body['serving_version']} (shadow armed: "
            f"{body.get('shadow_armed', False)})"
        )
        # A little live traffic for the shadower to sample...
        for name in query_names:
            http("POST", f"{base_url}/v1/plan", {"query": name})
        time.sleep(0.2)
        status, body = http("POST", f"{base_url}/v1/models/rollback")
        print(
            f"POST /v1/models/rollback -> {status}: serving "
            f"v{body['serving_version']}"
        )


def structural_smoke(base_url: str, queries: list[Query]) -> None:
    """Plan a workload query through ``postgres`` by name, then a different
    query sent whole under the same name: each plan must cover its own query."""
    named = queries[0]
    other = next(q for q in queries if set(q.aliases) != set(named.aliases))
    twin = Query(named.name, other.tables, other.joins, other.filters)
    for query, body in ((named, named.name), (twin, query_to_json_dict(twin))):
        status, reply = http(
            "POST", f"{base_url}/v1/plan", {"query": body, "planner": "postgres"}
        )
        assert status == 200, f"/v1/plan (postgres) returned {status}: {reply}"
        validate_plan(query, plan_from_json_dict(reply["plans"][0]))
    print(
        f"POST /v1/plan (structural {twin.name!r}, postgres) -> 200: "
        f"the plan covers {sorted(twin.aliases)}"
    )


def learning_smoke(base_url: str, query_names: list[str]) -> None:
    """Drive traffic until the online loop lands a round, then report it."""
    deadline = time.monotonic() + 60.0
    body: dict = {}
    while time.monotonic() < deadline:
        for name in query_names:
            http("POST", f"{base_url}/v1/plan", {"query": name, "k": 2})
        status, body = http("GET", f"{base_url}/v1/experience")
        assert status == 200, f"/v1/experience returned {status}: {body}"
        if body["rounds"] >= 1:
            break
        time.sleep(0.1)
    assert body.get("rounds", 0) >= 1, f"no online round landed in time: {body}"
    sink, buffer = body["sink"], body["buffer"]
    print(
        f"GET /v1/experience -> 200: {body['rounds']} rounds, "
        f"{body['promotions']} promotions, {body['rejections']} rejections, "
        f"sink recorded {sink['recorded']} (dropped {sink['dropped']}, "
        f"stalls {sink['stalls']}), buffer {buffer['size']}/{buffer['capacity']} "
        f"({buffer['duplicates']} dups folded)"
    )
    assert sink["stalls"] == 0, "experience sink stalled a foreground request"
    status, metrics = http("GET", f"{base_url}/v1/metrics")
    assert status == 200 and metrics["experience"] is not None
    print("GET /v1/metrics -> 200: experience block present")
    status, models = http("GET", f"{base_url}/v1/models")
    decisions = models["decisions"]
    assert status == 200 and decisions, f"no gate decision recorded: {models}"
    last = decisions[-1]
    print(
        f"GET /v1/models -> 200: {len(decisions)} gate decisions, the last "
        f"v{last['candidate_version']} against v{last['serving_version']} over "
        f"{len(last['probes'])} probes: {last['reason']}"
    )


def http_with_headers(url: str, payload: dict | None = None) -> tuple[int, dict, dict]:
    """One GET (a POST of ``payload`` when given), also returning the
    response headers (for X-Repro-Worker)."""
    request = urllib.request.Request(url)
    if payload is not None:
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"), method="POST",
            headers={"Content-Type": "application/json"},
        )
    with urllib.request.urlopen(request, timeout=30) as response:
        return (
            response.status,
            json.loads(response.read().decode("utf-8")),
            dict(response.headers),
        )


def await_workers_serving(
    gateway: ShardedGateway, version: int, timeout: float = 30.0
) -> set[int]:
    """Poll ``/healthz`` until every worker reports ``serving_version``."""
    expected = set(range(gateway.num_workers))
    serving: set[int] = set()
    deadline = time.monotonic() + timeout
    while serving != expected and time.monotonic() < deadline:
        _, body, headers = http_with_headers(f"{gateway.base_url}/healthz")
        worker = headers.get("X-Repro-Worker")
        if worker is not None and body["serving_version"] == version:
            serving.add(int(worker))
    return serving


def sharded_smoke(gateway: ShardedGateway, query_names: list[str]) -> None:
    """Check workers answer, the cache tier carries plans, and ops cohere."""
    base_url = gateway.base_url
    expected = set(range(gateway.num_workers))
    seen: set[int] = set()
    deadline = time.monotonic() + 30.0
    while seen != expected and time.monotonic() < deadline:
        status, body, headers = http_with_headers(f"{base_url}/healthz")
        assert status == 200, f"/healthz returned {status}"
        worker = headers.get("X-Repro-Worker")
        if worker is not None:
            seen.add(int(worker))
            assert int(worker) == body["worker_id"]
    assert seen == expected, f"only workers {sorted(seen)} of {sorted(expected)} answered"
    print(f"GET /healthz -> 200 from all {len(seen)} workers: {sorted(seen)}")

    status, body = http("POST", f"{base_url}/v1/plan", {"query": query_names[0], "k": 2})
    assert status == 200, f"/v1/plan returned {status}"
    print(f"POST /v1/plan ({query_names[0]!r}) -> {status}: {len(body['plans'])} plans")

    status, body = http(
        "POST", f"{base_url}/v1/plan_many",
        {"requests": [{"query": name} for name in query_names]},
    )
    assert status == 200, f"/v1/plan_many returned {status}"
    print(f"POST /v1/plan_many -> {status}: {len(body['results'])} results")

    # Re-plan the same queries until every worker has served at least one,
    # some query has been answered by two workers and the tier has had a
    # hit: a repeat that lands on another worker comes from the shared tier,
    # the rendering one worker stored spliced into the other's reply.
    served: set[int] = set()
    answers: dict[str, dict[int, tuple]] = {}
    tier_hits = decoded_hits = 0
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and not (
        served == expected and tier_hits > 0 and decoded_hits > 0
        and any(len(by_worker) > 1 for by_worker in answers.values())
    ):
        for name in query_names:
            status, body, headers = http_with_headers(
                f"{base_url}/v1/plan", {"query": name, "k": 2}
            )
            assert status == 200, f"/v1/plan returned {status}"
            answers.setdefault(name, {})[int(headers["X-Repro-Worker"])] = (
                body["plans"], body["predicted_latencies"]
            )
        status, body, headers = http_with_headers(f"{base_url}/v1/metrics")
        assert status == 200, f"/v1/metrics returned {status}"
        served.add(int(headers["X-Repro-Worker"]))
        # The answering worker's own view: values it took from the tier and
        # decoded, and values it refused.
        worker_tier = body.get("shared_cache") or {}
        decoded_hits = max(decoded_hits, worker_tier.get("shared_hits", 0))
        assert worker_tier.get("decode_failures", 0) == 0, (
            f"worker {headers['X-Repro-Worker']} refused shared-tier values"
        )
        tier_hits = (gateway.shared_cache_stats() or {}).get("hits", 0)
    assert served == expected, f"metrics answered by {sorted(served)} only"
    print(f"GET /v1/metrics -> 200 from all {len(served)} workers")
    assert tier_hits > 0 and decoded_hits > 0, (
        "no worker hit a plan another stored in the shared tier"
    )
    shared = [name for name, by_worker in answers.items() if len(by_worker) > 1]
    assert shared, "no query was answered by two workers"
    for name in shared:
        first, *others = answers[name].values()
        assert all(other == first for other in others), (
            f"workers answered {name!r} with different plans"
        )
    print(
        f"shared cache tier: {tier_hits} cross-worker hits; {len(shared)} queries "
        "answered alike by two workers"
    )

    status, body = http("GET", f"{base_url}/v1/models")
    assert status == 200, f"/v1/models returned {status}"
    print(f"GET /v1/models -> {status}: serving v{body['serving_version']}")

    # Ops coherence: a promote lands on ONE worker (the kernel's pick) and
    # must reach all of them through the broadcast bus; same for rollback.
    serving = body["serving_version"]
    candidates = [v for v in body["versions"] if v != serving]
    if candidates:
        target = candidates[-1]
        status, body = http(
            "POST", f"{base_url}/v1/models/promote", {"version": target}
        )
        assert status == 200, f"promote returned {status}: {body}"
        agreed = await_workers_serving(gateway, target)
        assert agreed == set(range(gateway.num_workers)), (
            f"promote v{target} reached workers {sorted(agreed)} only"
        )
        print(f"POST /v1/models/promote v{target} -> 200: all workers serving it")
        status, body = http("POST", f"{base_url}/v1/models/rollback")
        assert status == 200, f"rollback returned {status}: {body}"
        agreed = await_workers_serving(gateway, serving)
        assert agreed == set(range(gateway.num_workers)), (
            f"rollback to v{serving} reached workers {sorted(agreed)} only"
        )
        print(f"POST /v1/models/rollback -> 200: all workers back on v{serving}")

    cache = gateway.shared_cache_stats() or {}
    print(
        f"shared cache tier: {cache.get('inserts', 0)} inserts, "
        f"{cache.get('hits', 0)} hits, {cache.get('size', 0)} entries"
    )
    assert cache.get("inserts", 0) > 0, "no plans reached the shared cache tier"
    stats = gateway.stats()
    assert stats["alive_workers"] == gateway.num_workers
    print(f"supervisor: {stats['alive_workers']} workers alive, {stats['respawns_used']} respawns")


def dump_traces(base_url: str, path: Path) -> None:
    """Write the gateway's ``/v1/traces`` payload to ``path`` (CI artifact)."""
    status, body = http("GET", f"{base_url}/v1/traces")
    assert status == 200, f"/v1/traces returned {status}"
    path.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(body['traces'])} sample traces to {path}")


def dump_profile(base_url: str, path: Path) -> None:
    """Write the gateway's ``/v1/profile`` payload to ``path`` (CI artifact,
    ``flamegraph`` key loads directly into d3-flame-graph / speedscope)."""
    status, body = http("GET", f"{base_url}/v1/profile")
    assert status == 200, f"/v1/profile returned {status}"
    path.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")
    samples = body.get("profile", {}).get("samples", 0)
    print(f"wrote flamegraph profile ({samples} samples) to {path}")


def run_sharded(args, benchmark, network, planner, queries) -> None:
    """Boot the pre-fork sharded gateway and (optionally) smoke it."""

    # Built once, pre-fork: every worker registers snapshots of the SAME two
    # networks, so version numbers (1 = baseline, 2 = candidate) and cache
    # version tags agree across all registries and broadcast ops apply
    # identically everywhere.
    candidate = network.clone()

    def worker_factory(spec):
        # Runs in the forked child: the network/benchmark/planner objects are
        # inherited from the parent; the service and registry are per worker.
        service = PlannerService(network, planner=planner)
        registry = ModelRegistry()
        baseline = registry.register(network, source="baseline")
        registry.promote(baseline.version)
        registry.register(candidate, source="candidate")
        return PlanningServer(
            service,
            lifecycle=ModelLifecycle(
                service, registry, featurizer=benchmark.featurizer
            ),
            queries=queries,
            host=spec.host,
            port=spec.port,
            verbose=args.log_json,
        )

    gateway = ShardedGateway(
        worker_factory,
        num_workers=args.workers,
        host=args.host,
        port=args.port,
    ).start()
    stats = gateway.stats()
    mode = "SO_REUSEPORT" if stats["reuse_port"] else "inherited listener"
    print(
        f"sharded gateway listening on {gateway.base_url} "
        f"({stats['num_workers']} workers, {mode}, pids {gateway.worker_pids()})"
    )
    print(f"  try: curl -s {gateway.base_url}/healthz")

    try:
        if args.smoke:
            sharded_smoke(gateway, [query.name for query in queries[:5]])
            # Workers push registry snapshots on an interval; give every
            # worker a beat to report before sampling the fleet merge.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                reporting = gateway.telemetry_server.worker_ids()
                if len(reporting) >= stats["num_workers"]:
                    break
                time.sleep(0.1)
            status, text = fetch_text(f"{gateway.metrics_url}")
            samples = [
                line for line in text.splitlines() if line and not line.startswith("#")
            ]
            print(
                f"GET {gateway.metrics_url} -> {status}: fleet-merged "
                f"{len(samples)} samples"
            )
            if args.traces_out is not None:
                dump_traces(gateway.base_url, args.traces_out)
            if args.profile_out is not None:
                # The supervisor's fleet endpoint merges every worker's
                # pushed profile (workers report on the telemetry interval).
                fleet_base = gateway.metrics_url.rsplit("/metrics", 1)[0]
                dump_profile(fleet_base, args.profile_out)
            print("smoke: every endpoint answered from every worker")
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        gateway.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; >1 boots the pre-fork sharded gateway with a "
        "shared plan-cache tier (--persist-dir then applies per worker and is "
        "ignored)",
    )
    parser.add_argument(
        "--persist-dir", type=Path, default=None,
        help="registry directory; restarts resume the last promoted model "
        "(single-process mode only)",
    )
    parser.add_argument(
        "--learn", action="store_true",
        help="close the on-policy loop: record live traffic into an "
        "experience sink and autonomously fine-tune/gate/promote from it "
        "(single-process mode only)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="exercise every endpoint against the booted gateway, then exit",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON logs (gateway, supervisor, workers and "
        "scorer processes all inherit the setting)",
    )
    parser.add_argument(
        "--traces-out", type=Path, default=None,
        help="with --smoke: write the gateway's /v1/traces payload (sample "
        "request traces) to this JSON file before exiting",
    )
    parser.add_argument(
        "--profile-out", type=Path, default=None,
        help="with --smoke: write the gateway's /v1/profile payload "
        "(flamegraph-ready merged stack samples) to this JSON file before "
        "exiting",
    )
    args = parser.parse_args()

    if args.log_json:
        # The env flag is what forked shard workers and scorer processes
        # check (maybe_configure_from_env); set it before any fork.
        os.environ["REPRO_LOG_JSON"] = "1"
        from repro.telemetry import configure_json_logging

        configure_json_logging()

    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.learn and args.workers > 1:
        parser.error("--learn runs the online loop in-process (use --workers 1)")

    # 1. The workload and the serving stack.  Built once, before any fork,
    # so sharded workers inherit the SAME network object and their plan-cache
    # keys (which embed the model version) agree across processes.
    benchmark = make_job_benchmark(
        fact_rows=400, num_queries=12, num_templates=4, test_size=3,
        seed=0, size_range=(3, 5),
    )
    queries = benchmark.all_queries()
    network = ValueNetwork(
        benchmark.featurizer,
        ValueNetworkConfig(
            query_hidden=16, query_embedding=8, tree_channels=(16, 8),
            head_hidden=8, seed=0,
        ),
    )
    planner = BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False)

    serve = run_sharded if args.workers > 1 else run_single
    if not (args.smoke and args.log_json):
        serve(args, benchmark, network, planner, queries)
        return
    with captured_stderr() as log_lines:
        serve(args, benchmark, network, planner, queries)
    check_json_log(log_lines, from_worker=args.workers > 1)


def run_single(args, benchmark, network, planner, queries) -> None:
    """Boot the single-process gateway (and the online loop with
    ``--learn``) and (optionally) smoke it."""
    service = PlannerService(network, planner=planner)

    # 2. The model registry: resume a persisted serving chain when possible.
    registry = None
    if args.persist_dir is not None:
        try:
            registry = ModelRegistry.load_persisted(args.persist_dir)
            print(
                f"resumed registry from {args.persist_dir}: serving "
                f"v{registry.serving_version}, versions {registry.versions()}"
            )
        except LifecycleError:
            pass
    if registry is None:
        registry = ModelRegistry(persist_dir=args.persist_dir)
        baseline = registry.register(network, source="baseline")
        registry.promote(baseline.version)
        # A second registered (not promoted) version gives the promote
        # endpoint something to work with.
        registry.register(network.clone(), source="candidate")

    # 3. The lifecycle: the one owner of what the service serves.  The ops
    # routes, the shadower's rollbacks, boot-time restore and (with --learn)
    # the trainer loop's promotions all move the serving model through it.
    # With --learn it gets a promotion gate over the probe workload.
    plan_cost = CoutCostModel(benchmark.estimator).cost
    gate = None
    if args.learn:
        gate = ShadowEvaluator(
            benchmark.train_queries,
            plan_cost,
            max_regression=5.0,
            max_total_regression=1.5,
            planner=planner,
        )
    lifecycle = ModelLifecycle(
        service, registry, gate, featurizer=benchmark.featurizer
    )

    # 4. Live-traffic shadow scoring with automatic rollback: every
    # promotion the lifecycle applies arms it.
    shadower = TrafficShadower(
        lifecycle,
        plan_cost,
        sample_fraction=0.25,
        max_regression=2.0,
        max_total_regression=1.25,
        planner=planner,
    )

    # 5. With --learn: the full online loop.  Served plans flow through the
    # sink into the replay buffer; the trainer loop fine-tunes the serving
    # network from them, gates candidates on the probe workload and
    # promotes winners.
    experience = None
    if args.learn:
        experience = OnlineTrainerLoop(
            lifecycle,
            plan_cost,
            min_new_tuples=12,
            min_round_interval_seconds=0.2,
            sample_size=64,
            max_epochs=4,
        ).start()

    # Requests naming ``"planner": "postgres"`` are planned by the expert.
    postgres_only = PlannerRegistry()
    postgres_only.register("postgres", benchmark.expert("postgres"))
    gateway = PlanningServer(
        service,
        lifecycle=lifecycle,
        shadower=shadower,
        experience=experience,
        planner_registry=postgres_only,
        queries=queries,
        host=args.host,
        port=args.port,
        verbose=args.log_json,
    ).start()
    print(f"gateway listening on {gateway.base_url}")
    print(f"  try: curl -s {gateway.base_url}/healthz")
    if args.learn:
        print("  online learning loop running (watch /v1/experience)")

    try:
        if args.smoke:
            smoke(gateway.base_url, [query.name for query in queries[:5]])
            structural_smoke(gateway.base_url, queries)
            if args.learn:
                learning_smoke(
                    gateway.base_url, [query.name for query in queries]
                )
            if args.traces_out is not None:
                dump_traces(gateway.base_url, args.traces_out)
            if args.profile_out is not None:
                dump_profile(gateway.base_url, args.profile_out)
            print("smoke: every endpoint answered")
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if experience is not None:
            experience.close()
        gateway.close()
        shadower.close()
        service.close()


if __name__ == "__main__":
    main()
