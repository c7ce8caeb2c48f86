"""Same learning, faster: the ``learn`` recipe against a recorded run.

The benchmark suite's ``learn`` workload (``benchmarks/suite/workloads.py``)
bootstraps a small agent from simulation, runs six training iterations and
evaluates; a change that makes training cheaper must leave what the agent
*learns* alone.  The recipe is run here, once, and compared with
``tests/data/learn_golden.json``, recorded before training moved to packed
tree batches: the exact work counts, which plans were executed (through the
per-iteration runtimes, sums of engine latencies that do not depend on the
weights) and the final normalised runtime.

It runs in a child interpreter with ``PYTHONHASHSEED=0`` and one BLAS thread,
as the suite's ``run.py`` pins them: the cardinality estimator multiplies a
join's per-alias row counts in ``frozenset`` order, so simulation cost labels
move in the last bit with the hash seed, and a seeded run then follows one of
two trajectories.  On a host whose BLAS sums in another order than the
reference host's, a flipped near-tie between two plans shows up here first.

    python tests/test_learn_golden.py        # prints the run as JSON
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "learn_golden.json"
PINNED = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
ITERATIONS = 6


def run_recipe() -> dict:
    from repro.api import BalsaAgent, BalsaConfig, make_job_benchmark

    bench = make_job_benchmark(
        fact_rows=300, num_queries=12, num_templates=6, test_size=3, seed=0, size_range=(3, 6)
    )
    agent = BalsaAgent(
        bench.environment(), BalsaConfig.small(seed=0), expert_runtimes=bench.expert_runtimes()
    )
    try:
        agent.bootstrap_from_simulation()
        iterations = [agent.train_iteration() for _ in range(ITERATIONS)]
        agent.evaluate(bench.test_queries)
        metrics = agent.planner_service.metrics()
    finally:
        agent.close()
    return {
        "simulation_points": agent.history.sim_dataset_size,
        "plans_scored": metrics.total_plans_scored,
        "score_calls": metrics.scoring.requests,
        "states_expanded": metrics.total_states_expanded,
        "timeouts": sum(iteration.num_timeouts for iteration in iterations),
        "unique_plans_seen": [iteration.unique_plans_seen for iteration in iterations],
        "train_runtimes": [iteration.train_runtime for iteration in iterations],
        "normalized_runtime": agent.history.final_normalized_runtime(),
    }


def test_learn_recipe_matches_the_recorded_run():
    import repro

    source = str(Path(repro.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    environment = {
        **os.environ,
        **PINNED,
        "PYTHONPATH": source + (os.pathsep + inherited if inherited else ""),
    }
    done = subprocess.run(
        [sys.executable, __file__], env=environment, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout)
    golden = json.loads(GOLDEN.read_text())

    exact = ("simulation_points", "plans_scored", "score_calls", "states_expanded",
             "timeouts", "unique_plans_seen")
    assert {name: run[name] for name in exact} == {name: golden[name] for name in exact}
    assert run["train_runtimes"] == pytest.approx(golden["train_runtimes"], rel=1e-9, abs=0)
    assert run["normalized_runtime"] == pytest.approx(
        golden["normalized_runtime"], rel=1e-9, abs=0
    )


if __name__ == "__main__":
    print(json.dumps(run_recipe(), indent=1))
