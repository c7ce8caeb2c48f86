"""The four workloads: a fixed cycle of operations each, repeated pass by pass.

Every workload offers the same surface to ``run.py``:

- ``setup()`` builds everything and runs the warm-up pass (both are
  ``setup_s``);
- ``run_pass()`` does the cycle once and returns one wall time per position
  plus the pass's *exact counts* — two passes that did the same work return
  equal counts, and the run is incorrect when they do not;
- ``settle()`` checks every distinct answer against the serial in-process
  beam search, after the timed part;
- ``close()`` stops every thread the workload started.

All loops are closed with one caller: the next operation starts when the
previous one has returned.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field

from estimators import permute, rotate, zipf_cycle
from probe import HostProbe, normalise
from spans import Proxy, SpanRecorder

from repro.agent.balsa import BalsaAgent
from repro.agent.config import BalsaConfig
from repro.featurization.featurizer import QueryPlanFeaturizer
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.plans.validation import InvalidPlanError, validate_plan
from repro.scoring import make_scoring_backend
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer
from repro.server.handlers import GatewayRequestHandler
from repro.server.sharding import PlanCacheServer, SharedCacheClient
from repro.server.wire import WireFormatError, plan_from_json_dict
from repro.service.cache import TieredPlanCache
from repro.service.service import PlannerService
from repro.workloads.benchmark import WorkloadBenchmark, make_job_benchmark

BEAM_SIZE = 20
TOP_K = 10

#: ``served_mixed``: request-cycle length and the two tier capacities, chosen
#: with ``estimators.simulate_tiers`` so that a pass is 19 L1 hits,
#: 6 shared-tier hits and 7 full misses (59 / 19 / 22 %) over the 8 queries.
MIXED_CYCLE_LENGTH = 32
MIXED_L1_CAPACITY = 5
MIXED_SHARED_CAPACITY = 6

#: ``learn``: iterations per pass and the bundle (9 train / 3 test queries).
LEARN_ITERATIONS = 6
LEARN_BUNDLE = dict(
    fact_rows=300, num_queries=12, num_templates=6, test_size=3, seed=0, size_range=(3, 6)
)


def make_planner() -> BeamSearchPlanner:
    """The paper's search setting (b = 20, k = 10)."""
    return BeamSearchPlanner(beam_size=BEAM_SIZE, top_k=TOP_K)


def cycle_queries(bench: WorkloadBenchmark) -> list:
    """The planning cycle: the first query of each relation count.

    Eight of the 113 JOB-like queries, 4 to 11 relations, about 1.2 s of cold
    beam search — short enough that a run repeats the cycle some 15 times,
    which is what lets the per-position minimum shed the host's bursts.
    """
    first: dict[int, object] = {}
    for query in bench.all_queries():
        first.setdefault(len(query.aliases), query)
    return list(first.values())


def fresh_network(bench: WorkloadBenchmark) -> ValueNetwork:
    """A same-seed network over its own featuriser (no cache shared)."""
    featurizer = QueryPlanFeaturizer(bench.database.schema, bench.estimator)
    return ValueNetwork(featurizer, ValueNetworkConfig(seed=0))


@dataclass
class PassRecord:
    """One pass: per position wall and CPU seconds and the probe's mark, exact
    counts, measured extras."""

    times: list[float]
    cpu: list[float]
    marks: list[int]
    counts: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def normalised(self, probe: HostProbe) -> list[float]:
        """Seconds per position on the reference host (``probe.normalise``)."""
        return [
            normalise(wall, cpu, probe.scale(mark))
            for wall, cpu, mark in zip(self.times, self.cpu, self.marks)
        ]


# ---------------------------------------------------------------------- #
# Checking answers
# ---------------------------------------------------------------------- #
def classify_plans(query, plans, predictions, expected) -> str | None:
    """Why a planned answer counts as failed (None when it is right)."""
    if not plans:
        return "no_plan"
    try:
        for plan in plans:
            validate_plan(query, plan)
    except InvalidPlanError:
        return "invalid_plan"
    if any(a > b for a, b in zip(predictions, predictions[1:])):
        return "not_ascending"
    if plans[0].fingerprint() != expected.best_plan.fingerprint():
        return "wrong_plan"
    return None


def classify_exchange(status: int, body: object, query, expected) -> str | None:
    """Why one ``POST /v1/plan`` exchange counts as failed (None when right)."""
    if status != 200:
        return f"http_{status}"
    try:
        plans = [plan_from_json_dict(entry) for entry in body["plans"]]
        predictions = [float(value) for value in body["predicted_latencies"]]
    except (WireFormatError, KeyError, TypeError, ValueError):
        return "undecodable"
    return classify_plans(query, plans, predictions, expected)


class Checker:
    """Counts attempted and failed operations.

    Answers are bucketed per query while the passes run (one equality test
    per operation) and classified once per distinct answer in :meth:`settle`,
    so the oracle's searches stay out of the measured part.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self._answers: dict[str, list[list]] = {}

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] += 1

    def answer(self, name: str, key: object, payload: object = None) -> None:
        """Count one answered operation; ``key`` decides which answers are equal."""
        self.attempted += 1
        bucket = self._answers.setdefault(name, [])
        for entry in bucket:
            if entry[0] == key:
                entry[2] += 1
                return
        bucket.append([key, payload, 1])

    def settle(self, classify) -> None:
        """``classify(name, key, payload) -> reason | None`` per distinct answer."""
        for name, bucket in self._answers.items():
            for key, payload, count in bucket:
                reason = classify(name, key, payload)
                if reason is not None:
                    self.failed += count
                    self.reasons[reason] += count
        self._answers.clear()


class Oracle:
    """The serial in-process ``BeamSearchPlanner.search`` on one network."""

    def __init__(self, network: ValueNetwork):
        self.network = network
        self.planner = make_planner()
        self._results: dict[str, object] = {}

    def record(self, query, result) -> None:
        self._results[query.name] = result

    def expected(self, query):
        if query.name not in self._results:
            self.record(query, self.planner.search(query, self.network))
        return self._results[query.name]


class Workload:
    """Shared state of the four workloads."""

    name = ""
    #: Measured passes of one run: a constant, the same on every commit.
    passes = 0
    #: Positions the latency percentiles run over / operations one pass
    #: completes; ``None`` means every position / the cycle length.
    latency_positions: list[int] | None = None
    operations_per_pass: int | None = None

    def __init__(
        self, seed: int, recorder: SpanRecorder | None, scratch_dir: str,
        probe: HostProbe | None = None,
    ):
        self.seed = seed
        self.traced = recorder is not None
        self.recorder = recorder or SpanRecorder()  # disabled: records nothing
        self.scratch_dir = scratch_dir
        self.checker = Checker()
        self.probe = probe or HostProbe()
        self.passes_run = 0

    def entered(self, cycle: list) -> tuple[list, int]:
        """``cycle`` as this pass runs it, and the offset it was entered at.

        Pass ``k`` enters the cycle at position ``k``, so over a run every
        operation sits at every place in the pass: what an operation inherits
        from the one before it (caches, a grown heap) then depends neither on
        where the seed put it nor does the run's peak memory.  Position ``i``
        of a pass record is always operation ``i`` of the cycle.
        """
        offset = self.passes_run % len(cycle)
        self.passes_run += 1
        return rotate(cycle, offset), offset

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassRecord:
        raise NotImplementedError

    def align(self) -> None:
        """Untimed, after ``setup``: whatever the seed asks for beyond it."""

    def cells(self) -> dict[str, float]:
        """The microcells of the layers this workload loads (traced runs)."""
        raise NotImplementedError

    def settle(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop what ``setup`` started (safe to call twice, and after a failed setup)."""


# ---------------------------------------------------------------------- #
# cold_plan
# ---------------------------------------------------------------------- #
class ColdPlan(Workload):
    """Fig. 14: one cold beam search (b = 20, k = 10) per operation."""

    name = "cold_plan"
    passes = 18

    def setup(self) -> None:
        self.bench = make_job_benchmark(seed=0)
        self.queries = permute(cycle_queries(self.bench), self.seed)
        self.by_name = {query.name: query for query in self.queries}
        self.oracle = None
        self.run_pass()

    def run_pass(self) -> PassRecord:
        # A fresh featuriser and same-seed network per pass, built outside
        # the timed calls: no feature cache crosses passes.
        network = fresh_network(self.bench)
        planner = make_planner()
        calls = Counter()
        if self.traced:
            recorder = self.recorder
            recorder.wrap_method(network.featurizer, "featurize", "featurization.featurize")
            recorder.wrap_method(network.featurizer, "batch", "featurization.batch")
            recorder.wrap_method(network, "forward", "model.forward")
            predict = recorder.wrap("model.predict", network.predict)

            def counted_predict(query, plans):
                calls["score_calls"] += 1
                calls["scored_examples"] += len(plans)
                return predict(query, plans)

            network.predict = counted_predict
            recorder.wrap_method(planner, "search", "search.search")
        warm_up = self.oracle is None
        if warm_up:
            # The warm-up pass is itself the serial in-process search.
            self.oracle = Oracle(network)
        times = []
        cpu = []
        marks = []
        counts = Counter()
        queries, offset = self.entered(self.queries)
        self.probe.begin_pass()
        for query in queries:
            with self.recorder.operation():
                cpu_started = time.process_time()
                started = time.perf_counter()
                try:
                    result = planner.search(query, network)
                except Exception as error:  # noqa: BLE001 - counted, not hidden
                    result = error
                times.append(time.perf_counter() - started)
                cpu.append(time.process_time() - cpu_started)
            marks.append(self.probe.after_operation())
            if isinstance(result, Exception):
                self.checker.fail(f"raised_{type(result).__name__}")
                continue
            if warm_up:
                self.oracle.record(query, result)
            counts["states_expanded"] += result.states_expanded
            counts["plans_scored"] += result.plans_scored
            key = (
                tuple(plan.fingerprint() for plan in result.plans),
                tuple(result.predicted_latencies),
            )
            self.checker.answer(query.name, key, result)
        counts.update(calls)
        return PassRecord(
            rotate(times, -offset), rotate(cpu, -offset), rotate(marks, -offset), dict(counts)
        )

    def cells(self) -> dict[str, float]:
        import cells  # imports this module

        query = cycle_queries(self.bench)[0]
        return cells.planning_cells(self.bench, query, self.probe, self.scratch_dir)

    def settle(self) -> None:
        def classify(name, key, result):
            query = self.by_name[name]
            return classify_plans(
                query, result.plans, result.predicted_latencies, self.oracle.expected(query)
            )

        self.checker.settle(classify)


# ---------------------------------------------------------------------- #
# served_warm / served_mixed
# ---------------------------------------------------------------------- #
_SCRAPED = (
    ("requests", ("planners", "default", "requests")),
    ("cache_hits", ("planners", "default", "cache_hits")),
    ("misses", ("planners", "default", "cache_misses")),
    ("states_expanded", ("planners", "default", "total_states_expanded")),
    ("plans_scored", ("planners", "default", "total_plans_scored")),
    ("l1_hits", ("planners", "default", "cache", "hits")),
    ("l1_evictions", ("planners", "default", "cache", "evictions")),
    ("score_calls", ("planners", "default", "scoring", "requests")),
    ("scored_examples", ("planners", "default", "scoring", "examples")),
    ("shared_hits", ("shared_cache", "shared_hits")),
    ("shared_stores", ("shared_cache", "shared_stores")),
)


def exchange(connection, method: str, path: str, payload: bytes | None = None):
    """One HTTP exchange on a keep-alive connection: ``(status, body bytes)``."""
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


class Served(Workload):
    """``POST /v1/plan`` by query name over one keep-alive connection."""

    cache_capacity = 4096

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.service = None
        self.cache_server = None
        self.shared_client = None
        self.gateway = None
        self.connection = None
        self._unpatch = None

    def setup(self) -> None:
        self.bench = make_job_benchmark(seed=0)
        self.queries = cycle_queries(self.bench)
        self.by_name = {query.name: query for query in self.queries}
        self.sequence = self.make_sequence()
        self.payloads = {
            query.name: json.dumps({"query": query.name, "k": TOP_K}).encode("utf-8")
            for query in self.queries
        }
        self.network = fresh_network(self.bench)
        self.oracle = Oracle(self.network)
        service_kwargs = {}
        if self.traced:
            # The default backend of a two-worker service, built here so the
            # hand-off can be seen as a span.
            backend = make_scoring_backend("threaded", lambda: self.network, num_workers=2)
            service_kwargs["scoring_backend"] = Proxy(
                backend, self.recorder, {"submit": "scoring.submit"}
            )
        self.service = PlannerService(
            self.network, planner=make_planner(), max_workers=2,
            cache_capacity=self.cache_capacity, **service_kwargs,
        )
        self.attach_shared_tier()
        if self.traced:
            self.install_spans()
        self.gateway = PlanningServer(self.service, queries=self.queries).start()
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", self.gateway.port, timeout=120
        )
        self.run_pass(lead_in=False)  # the warm-up pass fills the caches

    def make_sequence(self) -> list:
        raise NotImplementedError

    def pass_sequence(self) -> tuple[list, int]:
        """The requests of this pass and the offset the cycle was entered at."""
        return self.sequence, 0

    def attach_shared_tier(self) -> None:
        pass

    def install_spans(self) -> None:
        recorder = self.recorder
        original = GatewayRequestHandler.do_POST
        GatewayRequestHandler.do_POST = recorder.wrap("server.do_POST", original)
        self._unpatch = lambda: setattr(GatewayRequestHandler, "do_POST", original)
        recorder.wrap_method(self.service, "plan", "service.plan")
        recorder.wrap_method(self.service.planner, "search", "search.search")
        self.service.cache = Proxy(
            self.service.cache, recorder,
            {"lookup": "service.cache_lookup", "store": "service.cache_store"},
        )
        network = self.network
        recorder.wrap_method(network.featurizer, "featurize", "featurization.featurize")
        recorder.wrap_method(network.featurizer, "batch", "featurization.batch")
        recorder.wrap_method(network, "predict_examples", "model.predict_examples")
        recorder.wrap_method(network, "forward", "model.forward")

    def scrape(self) -> dict:
        status, raw = exchange(self.connection, "GET", "/v1/metrics")
        if status != 200:
            raise RuntimeError(f"GET /v1/metrics answered {status}")
        body = json.loads(raw)
        scraped = {}
        for key, path in _SCRAPED:
            value = body
            for part in path:
                value = value.get(part) if isinstance(value, dict) else None
            scraped[key] = value or 0
        return scraped

    def run_pass(self, lead_in: bool = True) -> PassRecord:
        before = self.scrape()
        times = []
        cpu = []
        marks = []
        hit_flags = []
        self.probe.begin_pass()
        if lead_in:
            # An untimed repeat of the cycle's last request.  That request was
            # the latest one served, so this is an L1 hit that leaves both
            # tiers as they were; it takes the cache misses the scrape and the
            # probe leave behind, which would otherwise make whichever query
            # the seed puts first look 40 % slower than anywhere else.
            status, _ = exchange(
                self.connection, "POST", "/v1/plan", self.payloads[self.sequence[-1].name]
            )
            if status != 200:
                self.checker.fail(f"http_{status}")
        sequence, offset = self.pass_sequence()
        for query in sequence:
            payload = self.payloads[query.name]
            with self.recorder.operation():
                cpu_started = time.process_time()
                started = time.perf_counter()
                try:
                    status, raw = exchange(self.connection, "POST", "/v1/plan", payload)
                except (OSError, http.client.HTTPException) as error:
                    status, raw = None, error
                times.append(time.perf_counter() - started)
                cpu.append(time.process_time() - cpu_started)
            marks.append(self.probe.after_operation())
            if status is None:
                self.checker.fail(f"raised_{type(raw).__name__}")
                self.connection.close()  # reconnects on the next request
                continue
            try:
                body = json.loads(raw) if status == 200 else {}
            except ValueError:
                body = {}  # classified as undecodable when the run settles
            hit_flags.append(bool((body.get("stats") or {}).get("cache_hit")))
            self.checker.answer(
                query.name,
                (status, body.get("plans"), body.get("predicted_latencies")),
            )
        after = self.scrape()
        counts = {key: after[key] - before[key] for key in after}
        if lead_in:
            for key in ("requests", "cache_hits", "l1_hits"):
                counts[key] -= 1
        counts["hit_flags"] = tuple(rotate(hit_flags, -offset))
        return PassRecord(
            rotate(times, -offset), rotate(cpu, -offset), rotate(marks, -offset), counts
        )

    def settle(self) -> None:
        # The gateway is closed by now: the oracle searches serially on the
        # very network that served.
        def classify(name, key, _payload):
            status, plans, predictions = key
            body = {"plans": plans, "predicted_latencies": predictions}
            query = self.by_name[name]
            return classify_exchange(status, body, query, self.oracle.expected(query))

        self.close()
        self.checker.settle(classify)

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.gateway is not None:
            self.gateway.close()
            self.gateway = None
        if self.service is not None:
            self.service.close()
        if self.shared_client is not None:
            self.shared_client.close()
            self.shared_client = None
        if self.cache_server is not None:
            self.cache_server.close()
            self.cache_server = None
        if self._unpatch is not None:
            self._unpatch()
            self._unpatch = None


class ServedWarm(Served):
    """Every request an L1 hit: server and service do all the work."""

    name = "served_warm"
    passes = 1500

    def make_sequence(self) -> list:
        return permute(self.queries, self.seed)

    def pass_sequence(self) -> tuple[list, int]:
        return self.entered(self.sequence)

    def cells(self) -> dict[str, float]:
        import cells  # imports this module

        return cells.serving_cells(
            self.service, self.network, self.connection, self.queries[0], self.probe
        )


class ServedMixed(Served):
    """A Zipf cycle over two LRU tiers smaller than the working set."""

    name = "served_mixed"
    passes = 15

    @property
    def cache_capacity(self) -> int:
        return MIXED_L1_CAPACITY

    def make_sequence(self) -> list:
        # ``setup`` warms up on the cycle as it stands, so that its work does
        # not depend on the seed; ``align`` then moves to the seed's entry.
        return [self.queries[key] for key in zipf_cycle(len(self.queries), MIXED_CYCLE_LENGTH)]

    def align(self) -> None:
        offset = self.seed % len(self.sequence)
        for query in self.sequence[:offset]:
            status, _ = exchange(self.connection, "POST", "/v1/plan", self.payloads[query.name])
            if status != 200:
                self.checker.fail(f"http_{status}")
        self.sequence = rotate(self.sequence, offset)

    def attach_shared_tier(self) -> None:
        # A relative path: AF_UNIX paths are capped near 100 bytes.
        address = os.path.relpath(
            os.path.join(self.scratch_dir, f"cache-{os.getpid()}.sock")
        )
        self.cache_server = PlanCacheServer(address, capacity=MIXED_SHARED_CAPACITY).start()
        self.shared_client = SharedCacheClient(address)
        shared = self.shared_client
        if self.traced:
            shared = Proxy(
                shared, self.recorder,
                {"get": "service.shared_get", "put": "service.shared_put"},
            )
        self.service.cache = TieredPlanCache(self.service.cache, shared)

    def cells(self) -> dict[str, float]:
        import cells  # imports this module

        query = self.queries[0]
        return cells.shared_tier_cells(
            query, self.oracle.expected(query), self.network, self.probe, self.scratch_dir
        )


# ---------------------------------------------------------------------- #
# learn
# ---------------------------------------------------------------------- #
class Learn(Workload):
    """The value network trained: bootstrap, 6 iterations, evaluate."""

    name = "learn"
    passes = 21
    latency_positions = list(range(1, 1 + LEARN_ITERATIONS))

    def setup(self) -> None:
        self.bundle = make_job_benchmark(**LEARN_BUNDLE)
        self.test_queries = permute(list(self.bundle.test_queries), self.seed)
        self.operations_per_pass = LEARN_ITERATIONS * len(self.bundle.train_queries)
        self.expert_runtimes = self.bundle.expert_runtimes()
        self.reference = None
        if self.traced:
            featurizer = self.bundle.featurizer
            self.recorder.wrap_method(featurizer, "featurize", "featurization.featurize")
            self.recorder.wrap_method(featurizer, "batch", "featurization.batch")
        self.run_pass()

    def run_pass(self) -> PassRecord:
        recorder = self.recorder
        environment = self.bundle.environment()
        agent = BalsaAgent(
            environment, BalsaConfig.small(seed=0), expert_runtimes=self.expert_runtimes
        )
        if self.traced:
            recorder.wrap_method(agent.planner_service, "plan_many", "service.plan_many")
            recorder.wrap_method(agent.planner, "search", "search.search")
            recorder.wrap_method(environment, "execute", "execution.execute")
        steps = [("simulation.bootstrap", agent.bootstrap_from_simulation)]
        steps += [("agent.train_iteration", agent.train_iteration)] * LEARN_ITERATIONS
        steps += [("agent.evaluate", lambda: agent.evaluate(self.test_queries))]
        times = []
        cpu = []
        marks = []
        signature = []
        self.probe.begin_pass()
        try:
            for index, (span_name, step) in enumerate(steps):
                with recorder.operation():
                    cpu_started = time.process_time()
                    started = time.perf_counter()
                    try:
                        with recorder.span(span_name):
                            outcome = step()
                    except Exception as error:  # noqa: BLE001 - counted, not hidden
                        outcome = error
                    times.append(time.perf_counter() - started)
                    cpu.append(time.process_time() - cpu_started)
                marks.append(self.probe.after_operation())
                if index == 0 and self.traced and agent.value_network is not None:
                    recorder.wrap_method(agent.value_network, "forward", "model.forward")
                    recorder.wrap_method(agent.value_network, "backward", "model.backward")
                if not isinstance(outcome, Exception):
                    try:
                        outcome = self.step_signature(index, agent, outcome)
                    except InvalidPlanError as error:
                        outcome = error
                if isinstance(outcome, Exception):
                    self.checker.fail(f"raised_{type(outcome).__name__}")
                    outcome = None
                signature.append(outcome)
            history = agent.history
            metrics = agent.planner_service.metrics()
        finally:
            agent.close()
        if self.reference is None:
            self.reference = signature  # the warm-up pass
        for index, step_signature in enumerate(signature):
            if step_signature is not None:
                self.checker.answer(f"step-{index}", step_signature)
        counts = {
            "simulation_points": history.sim_dataset_size,
            "timeouts": sum(m.num_timeouts for m in history.iterations),
            "states_expanded": metrics.total_states_expanded,
            "plans_scored": metrics.total_plans_scored,
            "score_calls": metrics.scoring.requests,
            "scored_examples": metrics.scoring.examples,
            "signature": hashlib.sha256(repr(signature).encode("utf-8")).hexdigest(),
        }
        extras = {
            "collect_s": history.sim_collection_seconds,
            "train_s": history.sim_train_seconds,
            "update_s": [m.update_seconds for m in history.iterations],
            "normalized_runtime": history.final_normalized_runtime() or 0.0,
        }
        return PassRecord(times, cpu, marks, counts, extras)

    def cells(self) -> dict[str, float]:
        import cells  # imports this module

        return cells.learning_cells(self.bundle, self.probe)

    def step_signature(self, index: int, agent: BalsaAgent, outcome) -> tuple:
        """What must agree bit for bit between passes at this step."""
        weights = hashlib.sha256()
        for name, values in sorted(agent.value_network.get_state().items()):
            weights.update(name.encode("utf-8"))
            weights.update(values.tobytes())
        if index == 0:
            return (agent.history.sim_dataset_size, weights.hexdigest())
        if index <= LEARN_ITERATIONS:
            return (
                outcome.train_runtime, outcome.num_timeouts, outcome.unique_plans_seen,
                outcome.test_runtime, weights.hexdigest(),
            )
        for query in self.test_queries:
            validate_plan(query, outcome[query.name][0])
        return tuple(
            (query.name, outcome[query.name][0].fingerprint(), outcome[query.name][1])
            for query in sorted(self.test_queries, key=lambda query: query.name)
        )

    def settle(self) -> None:
        def classify(name, key, _payload):
            index = int(name.split("-")[1])
            return None if key == self.reference[index] else "pass_disagrees"

        self.checker.settle(classify)


WORKLOADS = {
    workload.name: workload for workload in (ColdPlan, ServedWarm, ServedMixed, Learn)
}
