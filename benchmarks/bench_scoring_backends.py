"""Scoring-backend throughput: inproc vs process at 1/2/4 workers.

Not a paper figure — this measures the scoring path behind beam search.  A
JOB-derived workload is planned cold (plan cache disabled, so every request
runs a full search) through ``PlannerService`` once per (backend, workers)
cell:

- ``inproc``  — ``ValueNetwork.predict`` on the planning thread: a new
  join costs one row per layer.  The service plans on the caller's thread,
  so the three inproc rows run the same serial loop and differ by noise;
- ``process`` — ``workers`` scorer processes loading published model
  snapshots: a submit featurises and packs whole trees on the planning
  thread and the scorer runs the full forward pass.

Every cell asserts plan parity against the serial ``BeamSearchPlanner``
baseline, so the backends are compared on identical work.  The ratio of
process @ 4 workers over the inproc row labelled 4 lands in
``benchmark.extra_info['process_vs_inproc_4w']`` together with
``available_cpus``.  It is recorded, not gated: the full workload on the
2-vCPU reference host reads 0.32 (in-process 65.3 / 64.3 / 58.2 cold plans/s
at 1 / 2 / 4 workers against 10.8 / 17.3 / 18.6; 0.29 before PR 20 made
packing cheaper), so the pool is kept for cross-process version pinning and
crash containment, not for speed.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import run_once
from repro.evaluation.reporting import format_table
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.scoring import ProcessPoolBackend
from repro.search.beam import BeamSearchPlanner
from repro.service.service import PlannerService
from repro.workloads.benchmark import make_job_benchmark

#: CI smoke mode (REPRO_BENCH_QUICK=1) shrinks the workload.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

BACKENDS = ("inproc", "process")
WORKER_COUNTS = (1, 2, 4)


def _make_planner() -> BeamSearchPlanner:
    # Quick mode shrinks the search; the full config keeps frontiers wide so
    # per-submit scoring work dwarfs per-submit overhead (IPC for the
    # process backend).
    if QUICK:
        return BeamSearchPlanner(beam_size=5, top_k=3, enumerate_scan_operators=False)
    return BeamSearchPlanner(beam_size=10, top_k=5, enumerate_scan_operators=True)


def _make_network(bundle) -> ValueNetwork:
    config = (
        ValueNetworkConfig(
            query_hidden=64, query_embedding=32, tree_channels=(64, 64, 32),
            head_hidden=32, seed=0,
        )
        if QUICK
        else ValueNetworkConfig(
            query_hidden=128, query_embedding=64, tree_channels=(128, 128, 64),
            head_hidden=64, seed=0,
        )
    )
    return ValueNetwork(bundle.featurizer, config)


def _measure_cell(bundle, queries, network, backend_name: str, workers: int) -> dict:
    """Plan the workload cold through one (backend, workers) configuration."""
    backend = backend_name
    if backend_name == "process":
        # Build the pool up front and wait out the spawn/import cost, so the
        # timed window measures scoring throughput, not interpreter startup.
        backend = ProcessPoolBackend(bundle.featurizer, num_workers=workers)
        backend.wait_ready(timeout=120.0)
    with PlannerService(
        network,
        planner=_make_planner(),
        cache_capacity=0,  # cold: every request runs a full search
        scoring_backend=backend,
    ) as service:
        started = time.perf_counter()
        responses = service.plan_many(queries)
        elapsed = time.perf_counter() - started
        scoring = service.metrics().scoring
    assert all(response.plans for response in responses)
    return {
        "backend": backend_name,
        "workers": workers,
        "seconds": elapsed,
        "qps": len(queries) / elapsed if elapsed > 0 else 0.0,
        "mean_batch": scoring.mean_batch_examples,
        "responses": responses,
    }


def _run_backend_matrix() -> dict:
    num_queries = 6 if QUICK else 12
    bundle = make_job_benchmark(
        fact_rows=300,
        num_queries=num_queries,
        num_templates=min(4, num_queries),
        test_size=2,
        seed=0,
        size_range=(3, 5) if QUICK else (5, 7),
    )
    queries = bundle.all_queries()
    network = _make_network(bundle)
    planner = _make_planner()

    # Serial baseline: also warms the shared featurizer cache so every cell
    # measures search + scoring, not first-touch featurisation.
    serial_started = time.perf_counter()
    serial = [planner.search(query, network) for query in queries]
    serial_seconds = time.perf_counter() - serial_started

    cells = []
    for backend_name in BACKENDS:
        for workers in WORKER_COUNTS:
            cell = _measure_cell(bundle, queries, network, backend_name, workers)
            # Identical work across backends: same best plan per query.
            for direct, response in zip(serial, cell.pop("responses")):
                assert response.best_plan.fingerprint() == (
                    direct.best_plan.fingerprint()
                ), (backend_name, workers, response.query.name)
            cells.append(cell)
    return {
        "queries": len(queries),
        "serial_seconds": serial_seconds,
        "serial_qps": len(queries) / serial_seconds if serial_seconds > 0 else 0.0,
        "cells": cells,
    }


def bench_scoring_backends(benchmark):
    outcome = run_once(benchmark, _run_backend_matrix)
    cells = outcome["cells"]
    by_key = {(cell["backend"], cell["workers"]): cell for cell in cells}
    print()
    print(
        format_table(
            ["backend", "workers", "seconds", "q/s", "mean batch"],
            [
                [
                    cell["backend"],
                    cell["workers"],
                    f"{cell['seconds']:.3f}",
                    f"{cell['qps']:.2f}",
                    f"{cell['mean_batch']:.1f}",
                ]
                for cell in cells
            ],
            title=(
                f"Scoring backends, cold cache ({outcome['queries']} JOB queries; "
                f"serial baseline {outcome['serial_qps']:.2f} q/s)"
            ),
        )
    )

    available_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for cell in cells:
        key = f"{cell['backend']}_{cell['workers']}w"
        benchmark.extra_info[f"{key}_qps"] = round(cell["qps"], 3)
        benchmark.extra_info[f"{key}_seconds"] = round(cell["seconds"], 4)
    benchmark.extra_info["serial_qps"] = round(outcome["serial_qps"], 3)
    benchmark.extra_info["available_cpus"] = int(available_cpus or 0)

    process_4w = by_key[("process", 4)]["qps"]
    inproc_4w = by_key[("inproc", 4)]["qps"]
    ratio = process_4w / inproc_4w if inproc_4w > 0 else float("inf")
    benchmark.extra_info["process_vs_inproc_4w"] = round(ratio, 3)
    print(
        f"process@4w vs inproc@4w: {ratio:.2f}x "
        f"(available_cpus={available_cpus}, recorded only)"
    )
