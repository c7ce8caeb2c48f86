"""What a warm ``POST /v1/plan`` costs on the server, layer by layer.

    PYTHONPATH=src python benchmarks/warm_reply.py [--rounds 40] [--batch 200]

Drives ``GatewayRequestHandler.handle_one_request`` in-process, on in-memory
files instead of a socket, against the ``served_warm`` stack of the suite
(its bundle, network, planner and k; every request an L1 hit), and takes
one layer away at a time:

- ``handler``: the whole exchange — head, decode, service, gateway, reply
  rendering, tracing, reply write;
- ``route``: ``gateway.plan_response`` on the decoded body — request decode,
  service and gateway, untraced;
- ``reply``: ``service_response_json_bytes`` of a served response — the
  per-request stats tail spliced behind the cached result bytes;
- ``tracing``: the handler with telemetry on less the handler with it off;
- ``http``: the untraced handler less ``route`` and ``reply`` — head parse,
  body read, dispatch, reply head and write.

Each figure is the minimum over ``--rounds`` alternations of a
``--batch``-request slice (the alternation puts host drift on every layer
alike), in microseconds per request.  Only APIs present since the stats tail
was first spliced are used, so the same file measures an older tree too
(``PYTHONPATH=<tree>/src``).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "suite"))

from workloads import TOP_K, cycle_queries, fresh_network, make_planner  # noqa: E402

from repro.server import PlanningServer  # noqa: E402
from repro.server.handlers import GatewayRequestHandler  # noqa: E402
from repro.server.wire import service_response_json_bytes  # noqa: E402
from repro.service.service import PlannerService  # noqa: E402
from repro.telemetry import set_enabled  # noqa: E402
from repro.workloads.benchmark import make_job_benchmark  # noqa: E402


def build():
    bench = make_job_benchmark(seed=0)
    query = cycle_queries(bench)[0]
    network = fresh_network(bench)
    service = PlannerService(network, planner=make_planner(), max_workers=2)
    gateway = PlanningServer(service, queries=[query])
    body = json.dumps({"query": query.name, "k": TOP_K}).encode("utf-8")
    request = (
        b"POST /v1/plan HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
        % (len(body), body)
    )
    handler_class = type("Handler", (GatewayRequestHandler,), {"gateway": gateway})
    return service, gateway, body, request, handler_class


def timed(function, batch: int) -> float:
    started = time.perf_counter()
    function(batch)
    return (time.perf_counter() - started) / batch * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--batch", type=int, default=200)
    args = parser.parse_args()
    service, gateway, body, request, handler_class = build()

    def handler_run(count: int) -> None:
        handler = handler_class.__new__(handler_class)
        handler.rfile = io.BytesIO(request * count)
        handler.wfile = io.BytesIO()
        handler.client_address = ("127.0.0.1", 0)
        handler.close_connection = True
        for _ in range(count):
            handler.handle_one_request()

    def route_run(count: int) -> None:
        payload = json.loads(body)
        for _ in range(count):
            gateway.plan_response(payload)

    status, response = gateway.plan_response(json.loads(body))  # fills the cache
    if status != 200 or not response.stats.cache_hit:
        status, response = gateway.plan_response(json.loads(body))
    assert status == 200 and response.stats.cache_hit, "expected a warm hit"

    def reply_run(count: int) -> None:
        for _ in range(count):
            service_response_json_bytes(response)

    best = {"handler_on": [], "handler_off": [], "route": [], "reply": []}
    try:
        for _ in range(args.rounds):
            set_enabled(True)
            best["handler_on"].append(timed(handler_run, args.batch))
            set_enabled(False)
            best["handler_off"].append(timed(handler_run, args.batch))
            best["route"].append(timed(route_run, args.batch))
            best["reply"].append(timed(reply_run, args.batch))
    finally:
        set_enabled(True)
        gateway.close()
        service.close()
    low = {name: min(values) for name, values in best.items()}
    rows = {
        "handler (telemetry on)": low["handler_on"],
        "handler (telemetry off)": low["handler_off"],
        "http: head, read, dispatch, write": (
            low["handler_off"] - low["route"] - low["reply"]
        ),
        "route: decode, service, gateway": low["route"],
        "reply: stats tail and splice": low["reply"],
        "tracing": low["handler_on"] - low["handler_off"],
    }
    for name, value in rows.items():
        print(f"{name:36s} {value:8.1f} us")
    print(json.dumps({name: round(value, 2) for name, value in rows.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
