"""Tests of the benchmark suite itself.

Run by name (tier-1 ``testpaths`` stays ``tests``)::

    pytest benchmarks/suite/test_suite.py
"""

from __future__ import annotations

import subprocess
import sys

import compare
import estimators
import probe
import pytest
import spans
import workloads
from guards import LeakGuard


# ---------------------------------------------------------------------- #
# Estimator arithmetic
# ---------------------------------------------------------------------- #
def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert estimators.percentile(values, 0.0) == 1.0
    assert estimators.percentile(values, 1.0) == 4.0
    assert estimators.percentile(values, 0.5) == 2.5
    assert estimators.percentile(values, 0.9) == pytest.approx(3.7)
    with pytest.raises(ValueError):
        estimators.percentile([], 0.5)


def test_per_position_estimate_is_the_lower_quartile_over_passes():
    passes = [[0.010, 0.100], [0.030, 0.104], [0.011, 0.101], [0.012, 0.103], [0.013, 0.102]]
    # sorted per position: 10 11 12 13 30 and 100 101 102 103 104; rank 0.25 * 4 = 1
    assert estimators.per_position(passes) == [0.011, 0.101]
    assert estimators.per_position(passes, min) == [0.010, 0.100]
    assert estimators.typical([4.0, 1.0, 2.0, 3.0]) == pytest.approx(1.75)
    with pytest.raises(ValueError):
        estimators.per_position([passes[0], passes[1][:1]])


def test_summarise_takes_percentiles_over_positions_of_the_estimates():
    # Five equal passes: every position's lower quartile is its own value.
    passes = [[0.010, 0.090, 0.020, 0.040]] * 5
    summary = estimators.summarise(passes)
    assert summary["op_latency_p50_ms"] == pytest.approx(30.0)
    assert summary["op_latency_p90_ms"] == pytest.approx(75.0)
    assert summary["ops_per_s"] == pytest.approx(4 / 0.160)
    chosen = estimators.summarise(passes, latency_positions=[0, 2], operations_per_pass=8)
    assert chosen["op_latency_p50_ms"] == pytest.approx(15.0)
    assert chosen["ops_per_s"] == pytest.approx(8 / 0.160)


# ---------------------------------------------------------------------- #
# The host probe
# ---------------------------------------------------------------------- #
def test_normalise_rescales_cpu_seconds_and_keeps_waiting_seconds():
    reference = probe.PROBE_REFERENCE_S
    # All CPU, host twice as slow as the reference: half the wall time.
    assert probe.normalise(0.100, 0.100, 2 * reference) == pytest.approx(0.050)
    # 60 ms of CPU and 40 ms of waiting on the same host: 30 + 40.
    assert probe.normalise(0.100, 0.060, 2 * reference) == pytest.approx(0.070)
    # CPU time of other threads cannot exceed the wall time of the operation.
    assert probe.normalise(0.100, 0.130, reference) == pytest.approx(0.100)


def test_probe_brackets_long_operations_and_lets_short_ones_share(monkeypatch):
    def scales_of(operations: int, readings: list[float]) -> list[float]:
        host = probe.HostProbe()
        pending = iter(readings)
        monkeypatch.setattr(probe, "kernel", lambda: None)
        real_sample = host.sample

        def sample():
            real_sample()
            host.samples[-1] = next(pending)  # the reading this sample "took"

        monkeypatch.setattr(host, "sample", sample)
        host.begin_pass()
        marks = [host.after_operation() for _ in range(operations)]
        host.sample()  # what ``run.py`` does after the last pass
        assert host.samples == readings  # every reading taken, none extra
        return [host.scale(mark) for mark in marks]

    # Every operation outlasts the probe interval: each has its own bracket,
    # and its scale is the lesser of the samples around it.
    monkeypatch.setattr(probe, "PROBE_EVERY_S", 0.0)
    assert scales_of(3, [0.004, 0.003, 0.005, 0.006, 0.009]) == [0.003, 0.003, 0.005]
    # None does: the sample before the pass and the one after bracket them all.
    monkeypatch.setattr(probe, "PROBE_EVERY_S", 1e9)
    assert scales_of(3, [0.004, 0.003]) == [0.003, 0.003, 0.003]


# ---------------------------------------------------------------------- #
# The Zipf cycle
# ---------------------------------------------------------------------- #
KEYS = 8  # the planning cycle: one query per relation count, 4 to 11


def test_zipf_counts_are_exact_expected_shares():
    length = workloads.MIXED_CYCLE_LENGTH
    counts = estimators.zipf_counts(KEYS, length)
    assert sum(counts) == length
    assert counts == sorted(counts, reverse=True)
    harmonic = sum(1 / rank for rank in range(1, KEYS + 1))
    for rank, count in enumerate(counts, start=1):
        assert abs(count - length / (rank * harmonic)) < 1.0
    assert min(counts) >= 1  # every query of the working set is requested


def test_zipf_cycle_is_fixed_and_seed_only_rotates_it():
    length = workloads.MIXED_CYCLE_LENGTH
    cycle = estimators.zipf_cycle(KEYS, length)
    assert cycle == estimators.zipf_cycle(KEYS, length)
    for seed in (1, 7, length + 1):
        turned = estimators.rotate(cycle, seed)
        assert sorted(turned) == sorted(cycle)
        assert (cycle + cycle)[seed % length : seed % length + length] == turned


def test_mixed_cycle_meets_its_shares_and_repeats_from_every_entry_point():
    cycle = estimators.zipf_cycle(KEYS, workloads.MIXED_CYCLE_LENGTH)
    for offset in range(len(cycle)):
        report = estimators.simulate_tiers(
            estimators.rotate(cycle, offset),
            workloads.MIXED_L1_CAPACITY, workloads.MIXED_SHARED_CAPACITY, passes=4,
        )
        warm_up, *measured = report
        assert all(entry == measured[0] for entry in measured), offset
        length = len(cycle)
        assert 0.55 <= measured[0]["l1_hits"] / length <= 0.65
        assert 0.10 <= measured[0]["shared_hits"] / length <= 0.20
        assert 0.20 <= measured[0]["misses"] / length <= 0.30
        assert measured[0]["l1_evictions"] > 0
    assert warm_up["misses"] >= KEYS


def test_planning_cycle_has_one_query_per_relation_count():
    queries = workloads.cycle_queries(workloads.make_job_benchmark(seed=0))
    assert sorted(len(query.aliases) for query in queries) == list(range(4, 12))
    assert len(queries) == KEYS


def test_seeded_permutation_keeps_the_multiset():
    items = list(range(19))
    assert sorted(estimators.permute(items, 3)) == items
    assert estimators.permute(items, 3) == estimators.permute(items, 3)
    assert estimators.permute(items, 3) != estimators.permute(items, 4)


# ---------------------------------------------------------------------- #
# served_mixed at a tiny size
# ---------------------------------------------------------------------- #
def test_two_served_mixed_passes_repeat_the_same_cache_traffic(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "BEAM_SIZE", 3)
    monkeypatch.setattr(workloads, "TOP_K", 2)
    monkeypatch.setattr(workloads, "MIXED_CYCLE_LENGTH", 16)
    monkeypatch.setattr(workloads, "MIXED_L1_CAPACITY", 2)
    monkeypatch.setattr(workloads, "MIXED_SHARED_CAPACITY", 4)
    monkeypatch.chdir(tmp_path)  # the socket path is taken relative to here
    workload = workloads.ServedMixed(seed=5, recorder=None, scratch_dir=str(tmp_path))
    try:
        workload.setup()  # includes the warm-up pass, on the cycle as it stands
        workload.align()  # five requests to the seed's entry point
        first, second = workload.run_pass(), workload.run_pass()
        workload.settle()
    finally:
        workload.close()
    assert first.counts == second.counts
    model = estimators.simulate_tiers(
        estimators.rotate(estimators.zipf_cycle(KEYS, 16), 5), 2, 4, passes=2
    )[1]
    assert first.counts["hit_flags"] == tuple(kind != "M" for kind in model["outcomes"])
    for key in ("l1_hits", "shared_hits", "misses", "l1_evictions", "shared_stores"):
        assert first.counts[key] == model[key], key
    assert first.counts["misses"] > 0 and first.counts["shared_hits"] > 0
    assert workload.checker.attempted == 3 * 16  # lead-ins and alignment are not operations
    assert workload.checker.failed == 0
    assert not list(tmp_path.iterdir())  # the socket file is gone


# ---------------------------------------------------------------------- #
# The failure classifier
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def planned():
    bench = workloads.make_job_benchmark(seed=0)
    query = bench.all_queries()[0]
    planner = workloads.BeamSearchPlanner(beam_size=3, top_k=3)
    return query, planner.search(query, workloads.fresh_network(bench))


def test_classifier_accepts_the_oracles_own_answer(planned):
    query, expected = planned
    body = expected.to_json_dict()
    assert workloads.classify_exchange(200, body, query, expected) is None


def test_classifier_names_a_wrong_plan_and_a_non_200_exchange(planned):
    query, expected = planned
    body = expected.to_json_dict()
    swapped = dict(body, plans=[body["plans"][1], body["plans"][0], body["plans"][2]])
    assert workloads.classify_exchange(200, swapped, query, expected) == "wrong_plan"
    assert workloads.classify_exchange(503, {}, query, expected) == "http_503"
    assert workloads.classify_exchange(200, dict(body, plans=[]), query, expected) == "no_plan"
    descending = dict(body, predicted_latencies=body["predicted_latencies"][::-1])
    assert workloads.classify_exchange(200, descending, query, expected) == "not_ascending"
    assert workloads.classify_exchange(200, {"plans": [{}]}, query, expected) == "undecodable"
    other = workloads.make_job_benchmark(seed=0).all_queries()[5]
    assert workloads.classify_exchange(200, body, other, expected) == "invalid_plan"


def test_checker_counts_every_operation_of_a_wrong_answer():
    checker = workloads.Checker()
    for _ in range(3):
        checker.answer("q1", ("right",))
    for _ in range(2):
        checker.answer("q1", ("wrong",))
    checker.fail("http_503")
    seen = []
    checker.settle(lambda name, key, payload: seen.append(key) or (
        "wrong_plan" if key == ("wrong",) else None))
    assert seen == [("right",), ("wrong",)]  # one classification per distinct answer
    assert (checker.attempted, checker.failed) == (6, 3)
    assert checker.reasons == {"wrong_plan": 2, "http_503": 1}


# ---------------------------------------------------------------------- #
# The leak guard
# ---------------------------------------------------------------------- #
def test_leak_guard_catches_a_leaked_child_process_and_a_leftover_file(tmp_path):
    guard = LeakGuard(str(tmp_path / "run"))
    assert guard.leaks(grace_seconds=0.0) == []
    assert not (tmp_path / "run").exists()

    guard = LeakGuard(str(tmp_path / "run"))
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        (tmp_path / "run" / "cache.sock").touch()
        leaks = guard.leaks(grace_seconds=0.2)
    finally:
        child.kill()
        child.wait()
    assert any(leak.startswith(f"process {child.pid} ") for leak in leaks)
    assert "file cache.sock" in leaks
    assert (tmp_path / "run").exists()  # kept for inspection when not clean


# ---------------------------------------------------------------------- #
# Spans and the comparison verdicts
# ---------------------------------------------------------------------- #
def test_layer_shares_use_self_time_and_cut_spans_to_their_operation():
    rows = [
        ["op", 0.0, 10.0, None, 0],
        ["server.do_POST", 1.0, 14.0, 0, 0],  # closed late: cut to the operation
        ["service.plan", 2.0, 6.0, 1, 0],
        ["search.search", 3.0, 5.0, 2, 0],
    ]
    shares = spans.layer_shares(spans.clamped(rows))
    assert shares == pytest.approx(
        {"unaccounted": 10.0, "server": 50.0, "service": 20.0, "search": 20.0}
    )
    assert sum(shares.values()) == pytest.approx(100.0)


def test_recorder_nests_spans_of_one_operation_and_skips_the_rest():
    recorder = spans.SpanRecorder()
    wrapped = recorder.wrap("model.forward", lambda: "out")
    assert wrapped() == "out" and recorder.spans == []  # disabled
    recorder.enabled = True
    assert wrapped() == "out" and recorder.spans == []  # no operation open
    with recorder.operation():
        with recorder.span("search.search"):
            wrapped()
    names = [(row[0], row[3], row[4]) for row in recorder.spans]
    assert names == [("op", None, 0), ("search.search", 0, 0), ("model.forward", 1, 0)]
    assert all(row[2] is not None and row[2] >= row[1] for row in recorder.spans)


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [value * 1.02 for value in steady], "lower", 0.10) == "ok"
    assert compare.verdict(steady, [value * 1.2 for value in steady], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [value * 0.8 for value in steady], "higher", 0.10) == "worse"
    noisy = [80.0, 120.0, 100.0, 90.0, 115.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [value * 0.5 for value in noisy], "lower", 0.10) == "ok"


def _run(value: float, correct: bool = True, passes: str = "15 untraced") -> dict:
    return {
        "workload": "cold_plan", "seed": 1, "trace": 0, "passes": passes, "exact": {"n": 1},
        "result": {"correct": correct, "attempted": 8, "failed": 0,
                   "metrics": {"op_latency_p50_ms": {"value": value, "unit": "ms"}}},
    }


def test_compare_fails_an_incorrect_run_and_unequal_passes_and_flags_unresolved():
    spec = {
        "workloads": [{"name": "cold_plan"}],
        "end_to_end": [
            {"name": "op_latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10}
        ],
    }
    steady = {"runs": [_run(value) for value in (100.0, 101.0, 99.0)]}
    assert compare.compare(steady, steady, spec)[1:] == (True, True)
    noisy = {"runs": [_run(value) for value in (80.0, 120.0, 100.0)]}
    assert compare.compare(noisy, noisy, spec)[1:] == (True, False)
    leaky = {"runs": [_run(100.0), _run(100.0, correct=False)]}
    lines, passed, _ = compare.compare(steady, leaky, spec)
    assert not passed and any("correct=false" in line for line in lines)
    cut = {"runs": [_run(100.0), _run(100.0, passes="12 untraced; CUT SHORT")]}
    lines, passed, _ = compare.compare(steady, cut, spec)
    assert not passed and any("DIFFER" in line for line in lines)
