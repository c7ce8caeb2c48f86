"""Scoring-backend throughput: inproc vs process at 1/2/4 workers.

Not a paper figure — this measures the scoring path behind beam search.  A
JOB-derived workload is planned cold (plan cache disabled, so every request
runs a full search) through ``PlannerService`` once per (backend, workers)
cell:

- ``inproc``      — forward passes on the planning threads, GIL-bound:
  adding workers adds almost no planning throughput;
- ``process``     — ``workers`` scorer processes loading published model
  snapshots; the only configuration whose scoring parallelism scales with
  cores;
- ``process+shm`` — the same pool shipping payloads zero-copy through
  shared-memory rings (fixed size here: the matrix compares transports,
  not controllers).

Every cell asserts plan parity against the serial ``BeamSearchPlanner``
baseline, so the backends are compared on identical work.  The headline
ratio — process @ 4 workers over inproc @ 4 threads — lands in
``benchmark.extra_info['process_vs_inproc_4w']`` together with
``available_cpus``; the >= 2x acceptance bar is asserted only under
``REPRO_BENCH_STRICT=1`` (dedicated >= 4-CPU hardware) and is otherwise
recorded: on a single-core or noisy shared runner every backend time-slices
the same cores and the ratio is a property of the machine, not the code.

Two focused scenarios ride alongside the matrix:

- ``bench_scoring_shm_vs_queue`` — identical pools, one with the shm fast
  path and one on the pickle queue, submitting the same featurised
  workload closed-loop; the throughput ratio is the headline
  (``shm_vs_queue``, bar >= 1.3x on >= 4 CPUs);
- ``bench_scoring_autoscaler_step`` — a paced arrival stream that steps to
  10x its steady rate mid-run against an autoscaled ``process+shm`` pool;
  records p99 latency before/during/after the step and asserts zero failed
  requests (the p99 ratio bar needs dedicated cores, like the others).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from benchmarks.conftest import run_once
from repro.evaluation.reporting import format_table
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.scoring import AutoscalerConfig, ProcessPoolBackend, ScoringBackendError
from repro.search.beam import BeamSearchPlanner
from repro.service.service import PlannerService
from repro.workloads.benchmark import make_job_benchmark

#: CI smoke mode (REPRO_BENCH_QUICK=1) shrinks the workload.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"
STRICT = os.environ.get("REPRO_BENCH_STRICT", "") == "1"

BACKENDS = ("inproc", "process", "process+shm")
WORKER_COUNTS = (1, 2, 4)
MIN_PROCESS_SPEEDUP = 2.0
MIN_SHM_SPEEDUP = 1.3
MAX_STEP_P99_RATIO = 2.0


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 0


def _make_planner() -> BeamSearchPlanner:
    # Quick mode shrinks the search; the full config keeps frontiers wide so
    # per-submit scoring work dwarfs per-submit overhead (IPC for the
    # process backends).
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
    if backend_name in ("process", "process+shm"):
        # Build the pool up front and wait out the spawn/import cost, so the
        # timed window measures scoring throughput, not interpreter startup.
        # The shm cell keeps the pool fixed-size: the matrix compares
        # transports, not the autoscaler.
        backend = ProcessPoolBackend(
            bundle.featurizer, num_workers=workers,
            use_shm=backend_name == "process+shm",
        )
        backend.wait_ready(timeout=120.0)
    with PlannerService(
        network,
        planner=_make_planner(),
        max_workers=workers,
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
    # The acceptance bar needs dedicated cores to show itself: on fewer than
    # 4 CPUs (or a noisy shared runner) the scorer processes time-slice with
    # the planners instead of running beside them, and the quick smoke
    # workload is too light for scoring to dominate.  The ratio is therefore
    # always recorded in the JSON artifact but only enforced on hardware that
    # opts in with REPRO_BENCH_STRICT=1.
    enforced = STRICT
    print(
        f"process@4w vs inproc@4w: {ratio:.2f}x "
        f"(available_cpus={available_cpus}, bar={MIN_PROCESS_SPEEDUP}x "
        f"{'enforced' if enforced else 'recorded only'})"
    )
    if enforced:
        assert ratio >= MIN_PROCESS_SPEEDUP, (
            f"process backend at 4 workers delivered only {ratio:.2f}x over "
            f"in-process scoring at 4 threads (bar: {MIN_PROCESS_SPEEDUP}x)"
        )


# ---------------------------------------------------------------------- #
# shm transport vs the pickle queue, same pool otherwise
# ---------------------------------------------------------------------- #
def _make_scoring_workload(num_queries: int):
    """(query, plans) pairs plus the reference predictions for parity."""
    bundle = make_job_benchmark(
        fact_rows=300,
        num_queries=max(4, num_queries),
        num_templates=4,
        test_size=2,
        seed=0,
        size_range=(3, 5) if QUICK else (5, 7),
    )
    network = _make_network(bundle)
    planner = _make_planner()
    workload = []
    for query in bundle.all_queries()[:num_queries]:
        result = planner.search(query, network)
        workload.append((query, result.plans, network.predict(query, result.plans)))
    return bundle, network, workload


def _run_shm_vs_queue() -> dict:
    num_queries = 4 if QUICK else 8
    rounds = 3 if QUICK else 8
    bundle, network, workload = _make_scoring_workload(num_queries)
    cells = {}
    for label, use_shm in (("queue", False), ("shm", True)):
        backend = ProcessPoolBackend(
            bundle.featurizer, num_workers=2, use_shm=use_shm,
            submit_timeout_seconds=120.0,
        )
        try:
            backend.wait_ready(timeout=120.0)
            # Warm pass: publishes the snapshot, restores it in the scorers,
            # fills the featurizer cache — and asserts parity, so the two
            # transports are compared on verified-identical work.
            for query, plans, expected in workload:
                np.testing.assert_allclose(
                    backend.submit(query, plans, version=network),
                    expected, rtol=1e-9, atol=1e-12,
                )
            started = time.perf_counter()
            submits = 0
            for _ in range(rounds):
                for query, plans, _ in workload:
                    backend.submit(query, plans, version=network)
                    submits += 1
            elapsed = time.perf_counter() - started
            stats = backend.stats()
            cells[label] = {
                "seconds": elapsed,
                "submits_per_second": submits / elapsed if elapsed > 0 else 0.0,
                "shm_batches": stats.shm_batches,
                "shm_fallbacks": stats.shm_fallbacks,
            }
        finally:
            backend.close()
    # The timed window must have run entirely on the fast path.
    assert cells["shm"]["shm_batches"] > 0
    assert cells["shm"]["shm_fallbacks"] == 0
    assert cells["queue"]["shm_batches"] == 0
    return {"cells": cells, "submits": num_queries * rounds}


def bench_scoring_shm_vs_queue(benchmark):
    outcome = run_once(benchmark, _run_shm_vs_queue)
    cells = outcome["cells"]
    queue_sps = cells["queue"]["submits_per_second"]
    shm_sps = cells["shm"]["submits_per_second"]
    ratio = shm_sps / queue_sps if queue_sps > 0 else float("inf")
    available_cpus = _available_cpus()

    benchmark.extra_info["queue_submits_per_second"] = round(queue_sps, 3)
    benchmark.extra_info["shm_submits_per_second"] = round(shm_sps, 3)
    benchmark.extra_info["shm_vs_queue"] = round(ratio, 3)
    benchmark.extra_info["available_cpus"] = available_cpus

    enforced = STRICT and available_cpus >= 4
    print(
        f"\nshm vs queue transport: {shm_sps:.2f} vs {queue_sps:.2f} submits/s "
        f"-> {ratio:.2f}x (available_cpus={available_cpus}, "
        f"bar={MIN_SHM_SPEEDUP}x {'enforced' if enforced else 'recorded only'})"
    )
    if enforced:
        assert ratio >= MIN_SHM_SPEEDUP, (
            f"shm transport delivered only {ratio:.2f}x over the pickle "
            f"queue (bar: {MIN_SHM_SPEEDUP}x)"
        )


# ---------------------------------------------------------------------- #
# Autoscaler step response: a 10x arrival-rate step mid-run
# ---------------------------------------------------------------------- #
def _paced_phase(backend, network, workload, rate_hz: float, count: int) -> dict:
    """Submit ``count`` paced requests open-loop; gather latencies/failures."""
    latencies = []
    failures = 0

    def one(index: int):
        query, plans, _ = workload[index % len(workload)]
        started = time.perf_counter()
        backend.submit(query, plans, version=network)
        return time.perf_counter() - started

    interval = 1.0 / rate_hz
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = []
        next_at = time.perf_counter()
        for index in range(count):
            delay = next_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(one, index))
            next_at += interval
        for future in futures:
            try:
                latencies.append(future.result())
            except ScoringBackendError:
                failures += 1
    return {
        "p99_seconds": float(np.percentile(latencies, 99)) if latencies else 0.0,
        "mean_seconds": float(np.mean(latencies)) if latencies else 0.0,
        "failures": failures,
        "count": count,
    }


def _run_autoscaler_step() -> dict:
    bundle, network, workload = _make_scoring_workload(4 if QUICK else 6)
    backend = ProcessPoolBackend(
        bundle.featurizer, num_workers=1, submit_timeout_seconds=120.0,
        use_shm=True,
        autoscaler=AutoscalerConfig(
            min_workers=1, max_workers=4, interval_seconds=0.02,
            up_hold_samples=2, down_hold_samples=50, cooldown_seconds=0.1,
        ),
    )
    try:
        backend.wait_ready(timeout=120.0)
        # Warm + calibrate: the steady rate is half of one worker's serial
        # capacity, so the 10x step genuinely overdrives the pool.
        warm_started = time.perf_counter()
        for query, plans, expected in workload:
            np.testing.assert_allclose(
                backend.submit(query, plans, version=network),
                expected, rtol=1e-9, atol=1e-12,
            )
        mean_latency = (time.perf_counter() - warm_started) / len(workload)
        steady_hz = 0.5 / max(mean_latency, 1e-4)

        counts = (12, 40, 12) if QUICK else (25, 80, 25)
        before = _paced_phase(backend, network, workload, steady_hz, counts[0])
        during = _paced_phase(backend, network, workload, steady_hz * 10, counts[1])
        after = _paced_phase(backend, network, workload, steady_hz, counts[2])
        stats = backend.stats()
    finally:
        backend.close()
    return {
        "steady_hz": steady_hz,
        "before": before,
        "during": during,
        "after": after,
        "scale_ups": stats.scale_ups,
        "scale_downs": stats.scale_downs,
        "workers_current": stats.workers_current,
    }


def bench_scoring_autoscaler_step(benchmark):
    outcome = run_once(benchmark, _run_autoscaler_step)
    before, during, after = (
        outcome["before"], outcome["during"], outcome["after"],
    )
    failed = before["failures"] + during["failures"] + after["failures"]
    steady_p99 = max(before["p99_seconds"], 1e-6)
    ratio = during["p99_seconds"] / steady_p99
    available_cpus = _available_cpus()

    print()
    print(
        format_table(
            ["phase", "rate (req/s)", "requests", "p99 (ms)", "mean (ms)"],
            [
                [
                    name,
                    f"{rate:.1f}",
                    phase["count"],
                    f"{phase['p99_seconds'] * 1e3:.1f}",
                    f"{phase['mean_seconds'] * 1e3:.1f}",
                ]
                for name, rate, phase in [
                    ("before", outcome["steady_hz"], before),
                    ("during (10x)", outcome["steady_hz"] * 10, during),
                    ("after", outcome["steady_hz"], after),
                ]
            ],
            title=(
                f"Autoscaler step response (scale_ups={outcome['scale_ups']}, "
                f"scale_downs={outcome['scale_downs']})"
            ),
        )
    )

    benchmark.extra_info["autoscaler_step_p99_before_ms"] = round(
        before["p99_seconds"] * 1e3, 2
    )
    benchmark.extra_info["autoscaler_step_p99_during_ms"] = round(
        during["p99_seconds"] * 1e3, 2
    )
    benchmark.extra_info["autoscaler_step_p99_after_ms"] = round(
        after["p99_seconds"] * 1e3, 2
    )
    benchmark.extra_info["autoscaler_step_p99_ratio"] = round(ratio, 3)
    benchmark.extra_info["autoscaler_failed_requests"] = failed
    benchmark.extra_info["autoscaler_scale_ups"] = outcome["scale_ups"]
    benchmark.extra_info["available_cpus"] = available_cpus

    # Zero failed requests is the hard bar on every machine: the step may
    # queue, but it must never drop or time out a request.
    assert failed == 0, f"{failed} requests failed during the rate step"

    enforced = STRICT and available_cpus >= 4
    print(
        f"p99 during 10x step: {ratio:.2f}x steady "
        f"(available_cpus={available_cpus}, bar={MAX_STEP_P99_RATIO}x "
        f"{'enforced' if enforced else 'recorded only'})"
    )
    if enforced:
        assert ratio <= MAX_STEP_P99_RATIO, (
            f"p99 during the 10x step was {ratio:.2f}x steady-state "
            f"(bar: {MAX_STEP_P99_RATIO}x)"
        )
