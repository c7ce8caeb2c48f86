"""The paper's tables and figures: each is specs, a view and its claims.

A view turns the runs of its specs (trained once each by one shared
:class:`~repro.evaluation.experiments.ExperimentRunner`) into the rows or
series the paper plots; a claim is a predicate over those rows, one per shape
the paper states.  ``benchmarks/bench_paper.py`` asserts every claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.agent.balsa import TEST_TIMEOUT
from repro.diversity.merge import (
    count_unique_plans,
    merge_agent_experiences,
    retrain_from_experience,
)
from repro.evaluation.experiments import (
    TINY_JOB,
    TINY_JOB_EXT,
    TINY_JOB_SLOW,
    TINY_TPCH,
    ExperimentRunner,
    ExperimentSpec,
    composition_mix,
    deployed_latencies,
    spec,
)
from repro.evaluation.metrics import (
    median_and_range,
    normalized_runtime,
    per_query_speedups,
    speedup,
    workload_runtime,
)
from repro.plans.analysis import operator_composition
from repro.search.beam import BeamSearchPlanner


def speedups(bench, train_latencies, test_latencies, expert="postgres") -> dict[str, float]:
    """Train- and test-set speedups over an expert."""
    expert_runtimes = bench.expert_runtimes(expert=expert)
    return {
        "train_speedup": speedup(train_latencies, expert_runtimes),
        "test_speedup": speedup(test_latencies, expert_runtimes),
    }


def run_speedups(runner: ExperimentRunner, experiment: ExperimentSpec, expert="postgres"):
    run = runner.run(experiment)[0]
    return speedups(run.bundle, run.train_latencies, run.test_latencies, expert)


def random_vs_sim_bootstrap(runner, random_agents: ExperimentSpec, bootstrapped: ExperimentSpec):
    """§3: random plans against a simulation-bootstrapped agent, both capped."""
    bench = runner.bundle(bootstrapped.bundle)
    train = bench.train_queries
    expert_total = bench.expert_workload_runtime(train)
    cap = max(60.0, 100.0 * expert_total / max(len(train), 1))
    slowdowns = [
        run.agent.workload_runtime(train, timeout=cap) / expert_total
        for run in runner.run(random_agents)
    ]
    evaluated = runner.run(bootstrapped)[0].agent.evaluate(train, timeout=cap)
    median, _, high = median_and_range(slowdowns)
    return {
        "random_slowdowns": slowdowns,
        "random_median_slowdown": median,
        "random_max_slowdown": high,
        "sim_bootstrap_slowdown": workload_runtime(
            {name: latency for name, (_, latency) in evaluated.items()}
        ) / expert_total,
        "expert_runtime": expert_total,
    }


def unique_plans(runner, agents: ExperimentSpec, agent_counts=(1, 2, 4)):
    """Table 1: unique plans in the merged experience of the first N agents."""
    trained = [run.agent for run in runner.run(agents)]
    counts = [count_unique_plans(a.experience for a in trained[:n]) for n in agent_counts]
    return {"rows": [
        {"num_agents": n, "unique_plans": unique, "ratio": unique / max(counts[0], 1)}
        for n, unique in zip(agent_counts, counts)
    ]}


def simulation_efficiency(runner, workloads: dict):
    """Table 2: simulation dataset size, collection and training time."""
    rows = []
    for workload, experiment in workloads.items():
        simulation = runner.run(experiment)[0].simulation
        rows.append({
            "workload": workload,
            "dataset_size": simulation["dataset_size"],
            "collection_minutes": simulation["collection_seconds"] / 60.0,
            "train_minutes": simulation["train_seconds"] / 60.0,
        })
    return {"rows": rows}


def balsa_vs_bao(runner, balsa: ExperimentSpec, bao: ExperimentSpec):
    """Table 3: Balsa's and Bao's speedups over the PostgreSQL-like expert."""
    bao_run = runner.run(bao)[0]
    bench = bao_run.bundle
    result = run_speedups(runner, balsa)
    return {"rows": [{
        "workload": bench.name,
        "balsa_train_speedup": result["train_speedup"],
        "balsa_test_speedup": result["test_speedup"],
        "bao_train_speedup": bench.expert_workload_runtime(bench.train_queries)
        / workload_runtime(bao_run.train_latencies),
        "bao_test_speedup": bench.expert_workload_runtime(bench.test_queries)
        / workload_runtime(bao_run.test_latencies),
    }]}


def expert_speedups(runner, workloads: dict, experts=("postgres", "commdb")):
    """Figure 6: median train and test speedups over each expert."""
    rows = []
    for workload, experiment in workloads.items():
        for expert in experts:
            per_seed = [
                speedups(run.bundle, run.train_latencies, run.test_latencies, expert)
                for run in runner.run(experiment)
            ]
            rows.append({"workload": workload, "expert": expert, **{
                key: median_and_range([r[key] for r in per_seed])[0]
                for key in ("train_speedup", "test_speedup")
            }})
    return {"rows": rows}


def per_query(runner, agent: ExperimentSpec):
    """Figure 9: per-query speedup against the expert's runtime."""
    run = runner.run(agent)[0]
    expert = run.bundle.expert_runtimes()
    points = {}
    for split, latencies in (("train", run.train_latencies), ("test", run.test_latencies)):
        by_query = per_query_speedups(latencies, expert)
        points[split] = [
            {"query": name, "expert_runtime": expert[name], "speedup": by_query[name]}
            for name in latencies
        ]
    return {"points": points}


def variant_curves(runner, variants: dict):
    """Figures 7, 8, 10–13 and 15: the learning curves of each variant."""
    return {"curves": {name: dict(runner.run(s)[0].curves) for name, s in variants.items()}}


def planning_time(runner, agent: ExperimentSpec, beam_sizes=(1, 5, 10), top_ks=(1, 5)):
    """Figure 14: the trained network re-planned at each (b, k)."""
    run = runner.run(agent)[0]
    trained = run.agent
    rows = []
    for beam_size in beam_sizes:
        for top_k in top_ks:
            planner = BeamSearchPlanner(
                beam_size=beam_size,
                top_k=top_k,
                enumerate_scan_operators=trained.config.enumerate_scan_operators,
            )
            planning_times, scored, latencies = [], [], {}
            for query in run.bundle.test_queries:
                # Best of three: one search of a warm network is ~0.1 ms, so a
                # single timing is mostly scheduler and collector noise.
                searches = [planner.search(query, trained.value_network) for _ in range(3)]
                planning_times.append(min(s.planning_seconds for s in searches))
                result = searches[0]
                scored.append(result.plans_scored)
                execution, _ = trained.environment.execute(
                    query, result.best_plan, timeout=TEST_TIMEOUT
                )
                latencies[query.name] = execution.latency
            rows.append({
                "beam_size": beam_size,
                "top_k": top_k,
                "mean_planning_ms": 1000.0 * float(np.mean(planning_times)),
                "mean_plans_scored": float(np.mean(scored)),
                "normalized_runtime": normalized_runtime(latencies, run.bundle.expert_runtimes()),
            })
    return {"rows": rows}


def _retrained(bench, config, experience, queries):
    """Deployed latencies of a fresh agent fit offline on ``experience`` (§6)."""
    agent = retrain_from_experience(
        bench.environment(), experience, config, bench.expert_runtimes()
    )
    latencies = [deployed_latencies(agent, split) for split in queries]
    agent.close()
    return latencies


def diversified(runner, agents: ExperimentSpec, experts=("postgres",)):
    """Figure 16: one agent against a fresh one retrained on every agent's experience."""
    runs = runner.run(agents)
    bench = runs[0].bundle
    merged = merge_agent_experiences([run.agent for run in runs])
    nx = _retrained(bench, agents.config(100), merged, (bench.train_queries, bench.test_queries))
    rows = []
    for expert in experts:
        base, retrained = run_speedups(runner, agents, expert), speedups(bench, *nx, expert)
        rows.append({
            "workload": bench.name,
            "expert": expert,
            "balsa_train_speedup": base["train_speedup"],
            "balsa_test_speedup": base["test_speedup"],
            "balsa_nx_train_speedup": retrained["train_speedup"],
            "balsa_nx_test_speedup": retrained["test_speedup"],
            "num_agents_merged": len(runs),
        })
    return {"rows": rows}


def ext_job(runner, agents: ExperimentSpec, neo: ExperimentSpec):
    """Figure 17: Ext-JOB runtime of Balsa, Neo and agents retrained on 1 or N buffers."""
    runs = runner.run(agents)
    bench = runs[0].bundle
    ext = bench.extra_queries["ext_job"]
    expert = bench.expert_runtimes(list(bench.all_queries()) + list(ext))
    expert_ext = sum(expert[q.name] for q in ext)
    latencies = {
        "balsa": deployed_latencies(runs[0].agent, ext),
        "neo_impl": deployed_latencies(runner.run(neo)[0].agent, ext),
        "balsa_1x": _retrained(bench, agents.config(101), runs[0].agent.experience, (ext,))[0],
        "balsa_nx": _retrained(bench, agents.config(100), merge_agent_experiences(
            [run.agent for run in runs]), (ext,))[0],
    }
    return {
        "ext_job_normalized_runtime": {
            name: workload_runtime(values) / expert_ext for name, values in latencies.items()
        },
        "num_agents_merged": len(runs),
    }


def behaviors(runner, agent: ExperimentSpec):
    """Figure 18: operator and plan-shape mix per iteration, and the expert's."""
    run = runner.run(agent)[0]
    expert_plans = [run.bundle.expert_plan_and_latency(q)[0] for q in run.bundle.train_queries]
    return {
        "series": dict(run.composition),
        "expert": composition_mix(operator_composition(expert_plans)),
    }


def estimator_noise(runner, factors: dict):
    """§10: speedups with the simulator's estimates divided by noise."""
    return {"rows": [
        {"noise_factor": factor, **run_speedups(runner, experiment)}
        for factor, experiment in factors.items()
    ]}


@dataclass(frozen=True)
class Figure:
    """A table or figure: its view, the specs it is called with, its claims."""

    view: Callable[..., dict]
    specs: dict
    claims: dict[str, Callable[[dict], bool]]

    def result(self, runner: ExperimentRunner) -> dict:
        return self.view(runner, **self.specs)


def _last(result: dict, variant: str, key: str) -> float:
    return result["curves"][variant][key][-1]


def _row(result: dict, **match) -> dict:
    return next(r for r in result["rows"] if all(r[k] == v for k, v in match.items()))


def _finite(values) -> list[float]:
    return [v for v in values if not math.isnan(v)]


def _spread(values) -> float:
    return max(_finite(values)) - min(_finite(values))


BALSA = spec(TINY_JOB)

FIGURES: dict[str, Figure] = {
    "sec3": Figure(random_vs_sim_bootstrap, {
        "random_agents": spec(TINY_JOB, "random", seeds=range(4)),
        "bootstrapped": spec(TINY_JOB, iterations=0),
    }, {
        "random_slower_than_expert": lambda r: r["random_median_slowdown"] > 1.0,
        "bootstrap_beats_random": lambda r: (
            0.0 < r["sim_bootstrap_slowdown"] < r["random_median_slowdown"]),
    }),
    "table1": Figure(unique_plans, {"agents": spec(TINY_JOB, seeds=range(4))}, {
        "near_linear_growth": lambda r: [x["ratio"] for x in r["rows"]]
        == sorted(x["ratio"] for x in r["rows"])
        and all(x["ratio"] >= 0.75 * x["num_agents"] for x in r["rows"]),
    }),
    "table2": Figure(simulation_efficiency, {"workloads": {
        "job": BALSA, "job_slow": spec(TINY_JOB_SLOW, iterations=0), "tpch": spec(TINY_TPCH),
    }}, {
        "job_more_data_than_tpch": lambda r: (
            _row(r, workload="job")["dataset_size"] > _row(r, workload="tpch")["dataset_size"]),
        "job_orders_of_magnitude_more_data": lambda r: (
            _row(r, workload="job")["dataset_size"]
            >= 10 * _row(r, workload="tpch")["dataset_size"]),
        "collection_cheaper_than_training": lambda r: all(
            x["collection_minutes"] < x["train_minutes"] for x in r["rows"]),
    }),
    "table3": Figure(balsa_vs_bao, {"balsa": BALSA, "bao": spec(TINY_JOB, "bao", iterations=4)}, {
        "bao_speedup_positive": lambda r: _row(r)["bao_train_speedup"] > 0,
        "balsa_matches_bao_train": lambda r: (
            _row(r)["balsa_train_speedup"] >= _row(r)["bao_train_speedup"]),
        "balsa_matches_bao_test": lambda r: (
            _row(r)["balsa_test_speedup"] >= _row(r)["bao_test_speedup"]),
    }),
    "figure6": Figure(expert_speedups, {"workloads": {"job": BALSA, "tpch": spec(TINY_TPCH)}}, {
        "speedup_positive": lambda r: all(x["train_speedup"] > 0 for x in r["rows"]),
        "speedup_at_least_one": lambda r: all(
            min(x["train_speedup"], x["test_speedup"]) >= 1.0 for x in r["rows"]),
        "commdb_at_least_postgres": lambda r: all(
            _row(r, workload=w, expert="commdb")[key]
            >= _row(r, workload=w, expert="postgres")[key]
            for w in ("job", "tpch") for key in ("train_speedup", "test_speedup")),
    }),
    "figure7": Figure(variant_curves, {"variants": {"job": BALSA}}, {
        "minimum_at_most_first": lambda r: (
            min(r["curves"]["job"]["normalized_runtime"])
            <= r["curves"]["job"]["normalized_runtime"][0]),
        "trends_downward": lambda r: (
            _last(r, "job", "normalized_runtime") < r["curves"]["job"]["normalized_runtime"][0]),
    }),
    "figure8": Figure(variant_curves, {"variants": {
        "job": spec(TINY_JOB, num_execution_nodes=1), "parallel": BALSA,
    }}, {
        "single_node_no_faster": lambda r: _last(r, "job", "elapsed_hours") > 0 and all(
            single >= parallel for single, parallel in zip(
                r["curves"]["job"]["elapsed_hours"], r["curves"]["parallel"]["elapsed_hours"])),
    }),
    "figure9": Figure(per_query, {"agent": BALSA}, {
        "speedups_finite": lambda r: bool(
            np.isfinite([p["speedup"] for p in r["points"]["train"]]).all()),
        # Runtime-weighted beats unweighted: the slow queries are the ones sped up.
        "slow_queries_improve": lambda r: (
            sum(p["expert_runtime"] for p in r["points"]["train"])
            / sum(p["expert_runtime"] / p["speedup"] for p in r["points"]["train"])
            >= float(np.median([p["speedup"] for p in r["points"]["train"]]))),
    }),
    "figure10": Figure(variant_curves, {"variants": {
        "expert": spec(TINY_JOB, simulator="expert"),
        "cout": spec(TINY_JOB, simulator="cout"),
        "none": spec(TINY_JOB, use_simulation=False, simulator="none"),
    }}, {
        "none_starts_worse": lambda r: (
            r["curves"]["none"]["normalized_runtime"][0]
            > max(r["curves"][v]["normalized_runtime"][0] for v in ("cout", "expert"))),
    }),
    "figure11": Figure(variant_curves, {"variants": {
        "timeout": BALSA, "no_timeout": spec(TINY_JOB, use_timeouts=False),
    }}, {
        "timeout_sees_at_least_as_many_plans": lambda r: (
            _last(r, "timeout", "unique_plans") >= _last(r, "no_timeout", "unique_plans")),
        "timeout_worst_iteration_no_worse": lambda r: (
            max(r["curves"]["timeout"]["normalized_runtime"])
            <= max(r["curves"]["no_timeout"]["normalized_runtime"])),
    }),
    "figure12": Figure(variant_curves, {"variants": {
        "count": spec(TINY_JOB, exploration="count"),
        "epsilon": spec(TINY_JOB, exploration="epsilon"),
        "none": spec(TINY_JOB, exploration="none"),
    }}, {
        "count_sees_at_least_as_many_plans_as_none": lambda r: (
            _last(r, "count", "unique_plans") >= _last(r, "none", "unique_plans")),
    }),
    "figure13": Figure(variant_curves, {"variants": {
        "on_policy": spec(TINY_JOB, on_policy=True), "retrain": spec(TINY_JOB, on_policy=False),
    }}, {
        "on_policy_updates_cheaper": lambda r: (
            sum(r["curves"]["on_policy"]["update_seconds"])
            < sum(r["curves"]["retrain"]["update_seconds"])),
        "on_policy_no_worse": lambda r: (
            _last(r, "on_policy", "normalized_runtime")
            <= _last(r, "retrain", "normalized_runtime")),
    }),
    "figure14": Figure(planning_time, {"agent": BALSA}, {
        "greedy_planning_not_far_slower": lambda r: (
            sum(x["mean_planning_ms"] for x in r["rows"] if x["beam_size"] == 1)
            <= 1.5 * sum(x["mean_planning_ms"] for x in r["rows"] if x["beam_size"] == 10)),
        "search_grows_with_beam": lambda r: all(
            _row(r, beam_size=1, top_k=k)["mean_plans_scored"]
            <= _row(r, beam_size=5, top_k=k)["mean_plans_scored"]
            <= _row(r, beam_size=10, top_k=k)["mean_plans_scored"] for k in (1, 5)),
        "greedy_never_better_than_widest": lambda r: all(
            _row(r, beam_size=1, top_k=k)["normalized_runtime"]
            >= _row(r, beam_size=10, top_k=k)["normalized_runtime"] for k in (1, 5)),
    }),
    "figure15": Figure(variant_curves, {"variants": {
        "balsa": BALSA, "neo_impl": spec(TINY_JOB, "neo"),
    }}, {
        "balsa_test_within_5x": lambda r: (
            min(_finite(r["curves"]["balsa"]["test_normalized_runtime"])) < 5.0),
        "test_runtimes_finite": lambda r: all(
            _finite(c["test_normalized_runtime"])
            and all(map(math.isfinite, _finite(c["test_normalized_runtime"])))
            for c in r["curves"].values()),
        "neo_updates_costlier": lambda r: (
            sum(r["curves"]["neo_impl"]["update_seconds"])
            > sum(r["curves"]["balsa"]["update_seconds"])),
        "neo_less_stable": lambda r: (
            _spread(r["curves"]["neo_impl"]["normalized_runtime"])
            > _spread(r["curves"]["balsa"]["normalized_runtime"])),
    }),
    "figure16": Figure(diversified, {"agents": spec(TINY_JOB, seeds=(0, 1))}, {
        "nx_speedup_positive": lambda r: _row(r)["balsa_nx_train_speedup"] > 0,
        "nx_test_not_far_below": lambda r: (
            _row(r)["balsa_nx_test_speedup"] >= 0.9 * _row(r)["balsa_test_speedup"]),
    }),
    "figure17": Figure(ext_job, {
        "agents": spec(TINY_JOB_EXT, seeds=(0, 1)), "neo": spec(TINY_JOB_EXT, "neo"),
    }, {
        "nx_within_1_5x_of_1x": lambda r: (
            r["ext_job_normalized_runtime"]["balsa_nx"]
            <= 1.5 * r["ext_job_normalized_runtime"]["balsa_1x"]),
        "nx_no_worse_than_1x": lambda r: (
            r["ext_job_normalized_runtime"]["balsa_nx"]
            <= r["ext_job_normalized_runtime"]["balsa_1x"]),
    }),
    "figure18": Figure(behaviors, {"agent": BALSA}, {
        "merge_join_at_most_0_8": lambda r: r["series"]["merge_join"][-1] <= 0.8,
        "join_fractions_are_distributions": lambda r: all(
            abs(sum(f) - 1.0) < 1e-9 for f in zip(
                r["series"]["merge_join"], r["series"]["nested_loop"], r["series"]["hash_join"])),
        "merge_join_not_dominant": lambda r: r["series"]["merge_join"][-1]
        < max(r["series"]["nested_loop"][-1], r["series"]["hash_join"][-1]),
    }),
    "noise": Figure(estimator_noise, {
        "factors": {1.0: BALSA, 5.0: spec(TINY_JOB, noise=5.0)},
    }, {
        "noisy_within_4x": lambda r: (
            0.25 * r["rows"][0]["train_speedup"] <= r["rows"][1]["train_speedup"]
            <= 4.0 * r["rows"][0]["train_speedup"]),
    }),
}
