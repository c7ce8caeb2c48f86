"""Nothing on the plan, learn or serve path needs the cycle collector to be freed.

What a reference cycle holds — a search's ``PlanTable`` and level lists, a
closed agent's networks and experience, a finished request's span tree —
stays allocated until the collector next runs, in every planner process.
Each test runs one path with the collector off and then asks it what it
found: it must find nothing.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.agent.balsa import BalsaAgent
from repro.agent.config import BalsaConfig
from repro.model.value_network import ValueNetwork
from repro.search.beam import BeamSearchPlanner
from repro.service.service import PlannerService
from repro.telemetry.trace import Trace, Tracer, start_trace
from repro.workloads.benchmark import make_job_benchmark

from tests.conftest import make_five_table_query


@pytest.fixture(scope="module")
def job_benchmark():
    return make_job_benchmark(
        fact_rows=300, num_queries=8, num_templates=4, test_size=2, size_range=(3, 5)
    )


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_cold_search(collector_off, featurizer):
    network = ValueNetwork(featurizer)
    planner = BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False)
    plans = planner.search(make_five_table_query(), network)
    assert plans
    del network, planner, plans
    assert gc.collect() == 0


def test_service_miss_then_hit_traced(collector_off, featurizer):
    service = PlannerService(
        ValueNetwork(featurizer),
        planner=BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False),
    )
    query = make_five_table_query()
    with start_trace("/v1/plan"):
        miss = service.plan(query)
        hit = service.plan(query)
    assert not miss.cache_hit and hit.cache_hit
    service.close()
    del service, miss, hit
    assert gc.collect() == 0


def test_agent_train_iteration_and_close(collector_off, job_benchmark):
    agent = BalsaAgent(job_benchmark.environment(), BalsaConfig.small())
    agent.bootstrap_from_simulation()
    agent.train_iteration()
    agent.close()
    alive = weakref.ref(agent)
    del agent
    assert alive() is None
    assert gc.collect() == 0


def test_trace_evicted_from_the_ring(collector_off):
    tracer = Tracer(ring_size=1, slow_log_size=0)
    for path in ("/evicted", "/kept"):
        trace = Trace(path)
        trace.finish()
        tracer.record(trace)
    assert [kept.path for kept in tracer.recent()] == ["/kept"]
    del trace
    assert gc.collect() == 0
