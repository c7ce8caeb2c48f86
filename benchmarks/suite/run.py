"""Run one workload of the planning-stack benchmark in one interpreter.

    python3 benchmarks/suite/run.py --workload <name> --seed <int> \\
        --seconds <n> --trace <0|1>

Sets up the workload three times (``setup_s`` is the median), repeats its
cycle after each set-up for a third of the workload's fixed number of passes,
checks every answer, prints every metric by name with its unit and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1`` (0 for the layers the workload does not load).
``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``) only caps the
measured part; the pass counts are sized to stay well inside it.  Exits 1 if
the run left a process, a shared-memory segment or a socket file behind.
``results/README.md`` explains the design.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT_DIR = SUITE / "out"

#: Pinned before the interpreter that measures starts (see ``pin_environment``).
PINNED = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # One malloc arena: with one per thread, peak RSS depends on which thread
    # happened to allocate what (105 or 120 MB from run to run).
    "MALLOC_ARENA_MAX": "1",
}
#: An untraced run sets the workload up this often (``setup_s`` is the
#: median) and measures a share of its passes after each set-up, so set-ups
#: and passes sample the host at moments spread over the whole run.
SETUP_REPEATS = 3
#: A wedged gateway thread ends the run with a traceback, inside the 180 s cap.
HANG_SECONDS = 170


def pin_environment() -> None:
    """Re-exec once with the hash seed, thread counts and malloc arenas pinned."""
    if all(os.environ.get(name) == value for name, value in PINNED.items()):
        return
    os.environ.update(PINNED)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def pin_cpu() -> None:
    """Run on one CPU, the last this process may use.

    One closed-loop caller never runs two threads at once.  On this host a
    hand-off between threads on two virtual CPUs doubles the time of a served
    exchange for minutes at a stretch, and nothing a single-threaded probe
    measures follows it; on one CPU a hand-off is a context switch and repeats.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure(workload, count: int, seconds: float, traced: bool) -> list:
    """``count`` measured passes (traced runs alternate arms), fewer — but one
    per arm — if ``seconds`` run out first."""
    started = time.perf_counter()
    passes = []
    least = 2 if traced else 1
    while len(passes) < count and (
        len(passes) < least or time.perf_counter() - started < seconds
    ):
        workload.recorder.enabled = traced and len(passes) % 2 == 1
        passes.append(workload.run_pass())
    workload.recorder.enabled = False
    return passes


def traced_metrics(untraced, traced, recorder, probe) -> tuple[dict, dict]:
    """The pass-derived per-layer metrics and the layer -> share table.

    Span durations are wall times; the reference over the run's median probe
    brings the absolute ones to the reference host.
    """
    import spans as span_log
    from estimators import per_position, summarise
    from probe import PROBE_REFERENCE_S

    host_factor = PROBE_REFERENCE_S / statistics.median(probe.samples)

    spans = span_log.clamped(recorder.spans)
    shares = span_log.layer_shares(spans)
    own = span_log.self_times(spans)
    cycle = len(untraced[0].times)
    operations = max(1, len(traced) * cycle)
    counts = untraced[0].counts

    def per(key: str, base: str) -> float:
        return counts.get(key, 0) / counts[base] if counts.get(base) else 0.0

    search_self = sum(
        seconds for row, seconds in zip(spans, own) if span_log.layer_of(row[0]) == "search"
    )
    iteration_ops = {row[4] for row in spans if row[0] == "agent.train_iteration"}

    def per_iteration_ms(name: str) -> float:
        inside = sum(
            row[2] - row[1] for row in spans if row[0] == name and row[4] in iteration_ops
        )
        return inside / len(iteration_ops) * 1e3 * host_factor if iteration_ops else 0.0

    def extra(key: str) -> float:
        values = [record.extras[key] for record in untraced + traced if key in record.extras]
        return statistics.median(values) if values else 0.0

    updates = [record.extras["update_s"] for record in untraced + traced
               if "update_s" in record.extras]
    update_ms = statistics.mean(per_position(updates)) * 1e3 if updates else 0.0
    untraced_s = summarise([record.normalised(probe) for record in untraced])["pass_s"]
    traced_s = summarise([record.normalised(probe) for record in traced])["pass_s"]
    walls = [record.times for record in untraced]
    metrics = {
        "search.states_expanded_per_op": counts.get("states_expanded", 0) / cycle,
        "search.plans_scored_per_op": counts.get("plans_scored", 0) / cycle,
        "search.score_calls_per_op": counts.get("score_calls", 0) / cycle,
        "search.batch_size_mean": per("scored_examples", "score_calls"),
        "search.self_ms_per_op": search_self / operations * 1e3 * host_factor,
        "featurization.share_pct": shares.get("featurization", 0.0),
        "model.share_pct": shares.get("model", 0.0),
        "server.share_pct": shares.get("server", 0.0),
        "service.l1_hit_ratio": per("l1_hits", "requests"),
        "service.shared_hit_ratio": per("shared_hits", "requests"),
        "service.miss_ratio": per("misses", "requests"),
        "service.l1_evictions_per_pass": counts.get("l1_evictions", 0),
        "service.shared_stores_per_pass": counts.get("shared_stores", 0),
        "simulation.collect_s": extra("collect_s") * host_factor,
        "simulation.train_s": extra("train_s") * host_factor,
        "simulation.points": counts.get("simulation_points", 0),
        "agent.iteration_plan_ms": per_iteration_ms("service.plan_many"),
        "agent.iteration_execute_ms": per_iteration_ms("execution.execute"),
        "agent.iteration_update_ms": update_ms * host_factor,
        "agent.normalized_runtime": extra("normalized_runtime"),
        "agent.timeouts": counts.get("timeouts", 0),
        "trace.unaccounted_pct": shares.get("unaccounted", 0.0),
        "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        "host.median_over_min": (
            sum(per_position(walls, statistics.median)) / sum(per_position(walls, min))
        ),
    }
    return metrics, shares


def run(args, run_dir: str) -> tuple[dict, bool, int, int]:
    """One run: ``(metric values, correct, attempted, failed)``."""
    import spans as span_log
    from estimators import summarise
    from probe import PROBE_REFERENCE_S, HostProbe, normalise
    from workloads import WORKLOADS

    traced = bool(args.trace)
    recorder = span_log.SpanRecorder() if traced else None
    probe = HostProbe()
    # A traced run does not report ``setup_s``: it sets up once and measures
    # one round's passes on each arm, untraced and traced in turn.
    rounds = 1 if traced else SETUP_REPEATS
    per_round = WORKLOADS[args.workload].passes // SETUP_REPEATS
    setup_seconds = []
    passes = []
    cell_values: dict[str, float] = {}
    attempted = failed = 0
    reasons: Counter = Counter()
    for _ in range(rounds):
        workload = WORKLOADS[args.workload](args.seed, recorder, run_dir, probe)
        try:
            first_sample = len(probe.samples)
            probe.sample()
            cpu_started = time.process_time()
            started = time.perf_counter()
            workload.setup()
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
            probe.sample()
            # The warm-up pass inside ``setup`` took its own samples too.
            scale = statistics.median(probe.samples[first_sample:])
            setup_seconds.append(normalise(wall, cpu, scale))
            workload.align()
            passes += measure(
                workload, per_round * (2 if traced else 1), args.seconds / rounds, traced
            )
            probe.sample()  # closes the last operation's bracket
            if traced:
                cell_values = workload.cells()
            workload.settle()
        finally:
            workload.close()
        attempted += workload.checker.attempted
        failed += workload.checker.failed
        reasons += workload.checker.reasons
        latency_positions = workload.latency_positions
        operations_per_pass = workload.operations_per_pass
        workload = None
        gc.collect()  # the next build reuses what this one held

    untraced = passes[0::2] if traced else passes
    traced_passes = passes[1::2] if traced else []
    identical = all(record.counts == passes[0].counts for record in passes)
    complete = len(passes) == rounds * per_round * (2 if traced else 1)
    print(f"passes: {len(untraced)} untraced + {len(traced_passes)} traced, "
          f"{len(passes[0].times)} positions each; work identical: {identical}"
          + ("" if complete else "; CUT SHORT by --seconds"))
    print("exact counts per pass: " + json.dumps(
        {key: value for key, value in passes[0].counts.items() if key != "hit_flags"},
        sort_keys=True,
    ))
    if failed:
        print(f"failed operations: {dict(reasons)}")
    probe_s = statistics.median(probe.samples)
    print(f"host probe: median {probe_s * 1e3:.3f} ms over {len(probe.samples)} samples "
          f"(reference {PROBE_REFERENCE_S * 1e3:.3f} ms)")

    if traced:
        values, shares = traced_metrics(untraced, traced_passes, recorder, probe)
        values.update(cell_values)
        values["host.probe_ms"] = probe_s * 1e3
        trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"columns": ["name", "start_s", "end_s", "parent", "op"],
             "spans": recorder.spans}
        ))
        print(f"layer shares of {args.workload} (self time over operation wall time; "
              f"{len(recorder.spans)} spans in {trace_file.relative_to(ROOT)}):")
        print(span_log.format_share_table(shares))
        print("top three layers: " + ", ".join(span_log.ranked_layers(shares)[:3]))
    else:
        summary = summarise(
            [record.normalised(probe) for record in passes], latency_positions, operations_per_pass
        )
        positions = latency_positions or passes[0].times
        wall_s = statistics.median(sum(record.times) for record in passes)
        print(f"latency percentiles over {len(positions)} positions; one pass: "
              f"{summary['pass_s']:.4f} s normalised, {wall_s:.4f} s wall (median)")
        values = {
            "setup_s": statistics.median(setup_seconds),
            "op_latency_p50_ms": summary["op_latency_p50_ms"],
            "op_latency_p90_ms": summary["op_latency_p90_ms"],
            "ops_per_s": summary["ops_per_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return values, identical and failed == 0, attempted, failed


def environment_record() -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit[5:]
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{name: os.environ.get(name) for name in PINNED},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    pin_environment()
    pin_cpu()
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [entry["name"] for entry in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"nothing to measure: {ROOT / 'src' / 'repro'} is not in this checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from guards import LeakGuard, stop_resource_tracker

    print("environment: " + json.dumps(environment_record(), sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    guard = LeakGuard(str(OUT_DIR / f"run-{os.getpid()}"))
    values, correct, attempted, failed = run(args, guard.run_dir)
    stop_resource_tracker()
    leaks = guard.leaks()
    for leak in leaks:
        print(f"LEAKED: {leak}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = float(values.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<44}{value:>16.6f} {entry['unit']}")
    print(json.dumps({
        "correct": correct and not leaks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    faulthandler.cancel_dump_traceback_later()
    return 1 if leaks else 0


if __name__ == "__main__":
    sys.exit(main())
