"""Compare two sets of runs collected by ``collect.py``.

    python3 benchmarks/suite/compare.py A.json B.json

Per workload and end-to-end metric: both medians, the ratio B/A with its
base, each side's quartile spread, the bound of ``BENCHMARK.json`` and a
verdict — ``ok``; ``worse`` when B's median is worse than A's by more than
the bound; ``unresolved`` when a side's spread is wider than the bound and
not every run of B beats every run of A.  Exact counts and the number of
measured passes must be the same in every run of both sets.  Exits 1 on any
``worse``, any differing exact count or pass count, any run reporting
``correct: false``, or a higher share of failed operations in B; exits 3 when
nothing is worse but a metric is ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from estimators import quartile_spread

ROOT = Path(__file__).resolve().parents[2]

#: Per-layer metrics that are counts of work, not timings: they must repeat.
EXACT_LAYER_METRICS = (
    "search.states_expanded_per_op", "search.plans_scored_per_op",
    "search.score_calls_per_op", "search.batch_size_mean",
    "service.l1_hit_ratio", "service.shared_hit_ratio", "service.miss_ratio",
    "service.l1_evictions_per_pass", "service.shared_stores_per_pass",
    "server.response_bytes", "simulation.points", "agent.timeouts",
    "agent.normalized_runtime",
)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    if sign * (median_b - median_a) / median_a > bound:
        return "worse"
    spread = max(quartile_spread(a), quartile_spread(b)) if min(len(a), len(b)) > 1 else 0.0
    b_always_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if spread > bound and not b_always_better:
        return "unresolved"
    return "ok"


def exact_counts(run: dict) -> dict:
    """What must repeat from run to run: the measured passes (how many, and
    that they did identical work), the counts per pass and, traced, per layer."""
    counts = dict(run.get("exact", {}), passes=run.get("passes"))
    if run["trace"]:
        metrics = run["result"]["metrics"]
        counts.update({name: metrics[name]["value"] for name in EXACT_LAYER_METRICS})
    return counts


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["result"]["attempted"] for run in runs)
    return sum(run["result"]["failed"] for run in runs) / attempted if attempted else 0.0


def compare(set_a: dict, set_b: dict, spec: dict) -> tuple[list[str], bool, bool]:
    """The report lines, whether the comparison passes, whether all is resolved."""
    lines = []
    passed = True
    resolved = True
    for workload in [entry["name"] for entry in spec["workloads"]]:
        runs_a = [run for run in set_a["runs"] if run["workload"] == workload]
        runs_b = [run for run in set_b["runs"] if run["workload"] == workload]
        if not runs_a or not runs_b:
            continue
        lines.append(f"{workload}: {len(runs_a)} runs of A, {len(runs_b)} runs of B")
        untraced_a = [run for run in runs_a if not run["trace"]]
        untraced_b = [run for run in runs_b if not run["trace"]]
        for metric in spec["end_to_end"] if untraced_a and untraced_b else []:
            name = metric["name"]
            a = [run["result"]["metrics"][name]["value"] for run in untraced_a]
            b = [run["result"]["metrics"][name]["value"] for run in untraced_b]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            passed = passed and outcome != "worse"
            resolved = resolved and outcome != "unresolved"
            median_a, median_b = statistics.median(a), statistics.median(b)
            lines.append(
                f"  {name:<20} A {median_a:12.4f} B {median_b:12.4f} {metric['unit']:<4}"
                f" B/A {median_b / median_a:6.4f} of {median_a:.4f}"
                f"  spread A {100 * quartile_spread(a):5.2f}% B {100 * quartile_spread(b):5.2f}%"
                f"  bound {100 * metric['bound']:.0f}% ({metric['better']} is better)"
                f"  {outcome}"
            )
        # A traced run counts more (score calls), so the two kinds of run
        # are held to their own kind.
        for trace in (0, 1):
            distinct = {
                json.dumps(exact_counts(run), sort_keys=True)
                for run in runs_a + runs_b if run["trace"] == trace
            }
            if len(distinct) > 1:
                passed = False
                lines.append(f"  passes or exact counts DIFFER between runs (trace {trace})")
            elif distinct:
                lines.append(f"  passes and exact counts identical in all runs (trace {trace})")
    share_a, share_b = failed_share(set_a["runs"]), failed_share(set_b["runs"])
    lines.append(f"failed operations: A {share_a:.6f} B {share_b:.6f} of attempted")
    if share_b > share_a:
        passed = False
        lines.append("B fails a higher share of its operations")
    incorrect = [
        f"{run['workload']} seed {run['seed']}"
        for run in set_a["runs"] + set_b["runs"] if not run["result"]["correct"]
    ]
    if incorrect:
        passed = False
        lines.append("runs reporting correct=false: " + ", ".join(incorrect))
    return lines, passed, resolved


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    set_a, set_b = (json.loads(Path(path).read_text()) for path in sys.argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, passed, resolved = compare(set_a, set_b, spec)
    print("\n".join(lines))
    if not passed:
        return 1
    return 0 if resolved else 3


if __name__ == "__main__":
    sys.exit(main())
