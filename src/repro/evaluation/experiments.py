"""One experiment runner: a list of specs in, one run per seed out, one table.

An :class:`ExperimentSpec` names everything a learning run depends on: the
bundle recipe, the agent (``balsa``, ``neo``, ``bao`` or ``random``), the
overrides on ``BalsaConfig.small``, the estimator noise, the seeds and the
iterations.  :class:`ExperimentRunner` builds each bundle **once**, so every
run on it shares one ``ExecutionEngine`` and its ledger (a plan any earlier
run executed replays bit for bit), and trains each distinct (bundle, agent,
config, seed) **once**, however many figures ask for it.  The paper's figures
are specs plus views over the runs (:mod:`repro.evaluation.figures`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.agent.balsa import BalsaAgent
from repro.agent.config import BalsaConfig
from repro.baselines.bao import BaoAgent
from repro.baselines.neo import NeoAgent
from repro.baselines.random_agent import RandomPlanAgent
from repro.cardinality.noise import NoisyEstimator
from repro.evaluation.reporting import format_table
from repro.planning.envelope import PlanRequest
from repro.plans.analysis import JoinOperator, OperatorComposition, PlanShape
from repro.workloads.benchmark import WorkloadBenchmark, make_job_benchmark, make_tpch_benchmark

#: Per-iteration series of a Balsa-style run (``balsa``, ``neo``).
CURVE_KEYS = (
    "elapsed_hours", "normalized_runtime", "unique_plans",
    "test_normalized_runtime", "num_timeouts", "update_seconds",
)
#: The operator and plan-shape mix of each iteration's executed plans.
COMPOSITION_KEYS = ("merge_join", "nested_loop", "hash_join", "bushy", "left_deep")


@dataclass(frozen=True)
class BundleRecipe:
    """How to build one bundle: ``make_job_benchmark`` or ``make_tpch_benchmark``
    (``workload`` ``"job"`` or ``"tpch"``) and its keyword arguments."""

    workload: str
    args: tuple[tuple[str, object], ...] = ()

    def build(self) -> WorkloadBenchmark:
        factory = {"job": make_job_benchmark, "tpch": make_tpch_benchmark}[self.workload]
        return factory(**dict(self.args))


def bundle(workload: str, **kwargs) -> BundleRecipe:
    return BundleRecipe(workload, tuple(sorted(kwargs.items())))


#: The figures' bundles: 24 JOB-like queries of 4–7 relations, and TPC-H.
TINY_JOB_ARGS = dict(fact_rows=600, num_queries=24, num_templates=8, test_size=5, size_range=(4, 7))
TINY_JOB = bundle("job", split="random", **TINY_JOB_ARGS)
TINY_JOB_SLOW = bundle("job", split="slow", **TINY_JOB_ARGS)
TINY_JOB_EXT = bundle("job", split="random", include_ext_job=True, **TINY_JOB_ARGS)
TINY_TPCH = bundle("tpch", base_rows=400, queries_per_template=3)


@dataclass(frozen=True)
class ExperimentSpec:
    """One learning experiment.

    Attributes:
        bundle: The bundle recipe.
        agent: ``"balsa"``, ``"neo"``, ``"bao"`` or ``"random"``.
        overrides: ``BalsaConfig`` fields replaced on ``BalsaConfig.small``.
        noise: Median factor of the :class:`NoisyEstimator` the agent's
            environment estimates with (1.0: the bundle's own estimator).
        seeds: One run per seed; the seed is also the agent id.
        iterations: Real-execution iterations (0: simulation bootstrap only).
    """

    bundle: BundleRecipe
    agent: str = "balsa"
    overrides: tuple[tuple[str, object], ...] = ()
    noise: float = 1.0
    seeds: tuple[int, ...] = (0,)
    iterations: int = 8

    def config(self, seed: int) -> BalsaConfig:
        return replace(BalsaConfig.small(seed, self.iterations), **dict(self.overrides))


def spec(bundle: BundleRecipe, agent: str = "balsa", *, seeds=(0,), iterations: int = 8,
         noise: float = 1.0, **overrides) -> ExperimentSpec:
    """An :class:`ExperimentSpec` with the config overrides as keywords."""
    if agent not in ("balsa", "neo", "bao", "random"):
        raise ValueError(f"unknown agent {agent!r}")
    return ExperimentSpec(
        bundle, agent, tuple(sorted(overrides.items())), noise, tuple(seeds), iterations
    )


@dataclass
class Run:
    """One trained agent and what it recorded.

    ``curves`` and ``composition`` hold one entry per iteration (Balsa-style
    agents only), ``simulation`` the bootstrap's ``dataset_size`` and seconds,
    and the latencies are those of the final deployed plans, per query.
    """

    spec: ExperimentSpec
    bundle: WorkloadBenchmark = field(repr=False)
    agent: object = field(repr=False)
    curves: dict[str, list[float]] = field(default_factory=dict)
    composition: dict[str, list[float]] = field(default_factory=dict)
    simulation: dict[str, float] = field(default_factory=dict)
    train_latencies: dict[str, float] = field(default_factory=dict)
    test_latencies: dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        spec = self.spec
        changes = [f"{key}={value}" for key, value in spec.overrides]
        changes += [f"noise={spec.noise}"] * (spec.noise != 1.0)
        changes += [f"iterations={spec.iterations}"] * (spec.iterations != 8)
        name = self.bundle.name + ("+ext_job" if self.bundle.extra_queries else "")
        return " ".join([name, spec.agent, f"seed={spec.seeds[0]}", *changes])


class ExperimentRunner:
    """Trains each distinct run once, on one bundle (one engine) per recipe."""

    def __init__(self) -> None:
        self._bundles: dict[BundleRecipe, WorkloadBenchmark] = {}
        self._runs: dict[tuple, Run] = {}

    @property
    def runs(self) -> list[Run]:
        return list(self._runs.values())

    def bundle(self, recipe: BundleRecipe) -> WorkloadBenchmark:
        if recipe not in self._bundles:
            self._bundles[recipe] = recipe.build()
        return self._bundles[recipe]

    def run(self, *specs: ExperimentSpec) -> list[Run]:
        """One run per (spec, seed); a run already trained is not trained again."""
        runs = []
        for experiment in specs:
            for seed in experiment.seeds:
                single = replace(experiment, seeds=(seed,))
                # Overrides that restate a default train the same run.
                key = (replace(single, overrides=()), repr(single.config(seed)))
                if key not in self._runs:
                    self._runs[key] = self._train(single, seed)
                runs.append(self._runs[key])
        return runs

    def _train(self, experiment: ExperimentSpec, seed: int) -> Run:
        bench = self.bundle(experiment.bundle)
        environment = bench.environment()
        if experiment.noise != 1.0:
            environment.estimator = NoisyEstimator(
                bench.estimator, median_factor=experiment.noise, seed=7
            )
        config, runtimes = experiment.config(seed), bench.expert_runtimes()
        if experiment.agent == "bao":
            agent = BaoAgent(environment, bench.expert("postgres"), seed=seed)
            agent.train(experiment.iterations)
        elif experiment.agent == "random":
            agent = RandomPlanAgent(environment, seed=seed)
        else:
            if experiment.agent == "neo":
                agent = NeoAgent(environment, bench.expert("postgres"), config, runtimes, seed)
            else:
                agent = BalsaAgent(environment, config, runtimes, agent_id=seed)
            agent.train()
        run = Run(experiment, bench, agent)
        if isinstance(agent, BalsaAgent):
            history = agent.history
            run.curves = {key: [] for key in CURVE_KEYS}
            for m in history.iterations:
                for key, value in zip(CURVE_KEYS, (
                    m.elapsed_seconds / 3600.0, m.normalized_runtime, m.unique_plans_seen,
                    m.test_normalized_runtime, m.num_timeouts, m.update_seconds,
                )):
                    run.curves[key].append(float("nan") if value is None else float(value))
            mixes = [composition_mix(m.composition) for m in history.iterations]
            run.composition = {key: [mix[key] for mix in mixes] for key in COMPOSITION_KEYS}
            run.simulation = {
                "dataset_size": history.sim_dataset_size,
                "collection_seconds": history.sim_collection_seconds,
                "train_seconds": history.sim_train_seconds,
            }
        run.train_latencies = deployed_latencies(agent, bench.train_queries)
        run.test_latencies = deployed_latencies(agent, bench.test_queries)
        return run

    def table(self) -> str:
        """One row per run: its final train and test runtime over the expert's."""
        rows = []
        for run in self.runs:
            expert = run.bundle.expert_runtimes()
            rows.append([run.label] + [
                sum(latencies.values()) / sum(expert[name] for name in latencies)
                for latencies in (run.train_latencies, run.test_latencies)
            ])
        return format_table(["run", "train / expert", "test / expert"], rows,
                            title="Learning runs (final deployed plans; lower is better)")

    def write(self, path: str | Path, **sections) -> None:
        """Every run as JSON, beside ``sections`` (e.g. the figures' rows)."""
        runs = [
            {"label": run.label, **asdict(run.spec), "curves": run.curves,
             "composition": run.composition, "simulation": run.simulation,
             "train_latencies": run.train_latencies, "test_latencies": run.test_latencies}
            for run in self.runs
        ]
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps({"runs": runs, **sections}, indent=1))

    def close(self) -> None:
        for run in self.runs:
            if isinstance(run.agent, BalsaAgent):
                run.agent.close()


def composition_mix(composition: OperatorComposition) -> dict[str, float]:
    """The ``COMPOSITION_KEYS`` fractions of one operator composition."""
    joins, shapes = composition.join_fractions, composition.shape_fractions
    return {
        "merge_join": joins[JoinOperator.MERGE_JOIN],
        "nested_loop": joins[JoinOperator.NESTED_LOOP],
        "hash_join": joins[JoinOperator.HASH_JOIN],
        "bushy": shapes[PlanShape.BUSHY],
        "left_deep": shapes[PlanShape.LEFT_DEEP],
    }


def deployed_latencies(agent, queries) -> dict[str, float]:
    """Per-query latency of the plans ``agent`` deploys (no exploration).

    Balsa-style agents run under ``TEST_TIMEOUT``.  Bao's and
    random plans run uncapped on the engine itself, not through the
    environment's plan cache.  That kept a cached uncapped explosion from
    answering a later capped execution of the same plan with its pessimistic
    latency; ``PlanCache.lookup`` now refuses that itself (a timed-out entry
    answers only a budget of its own kind), and the runs keep this path so
    the figures' numbers stay what they were.
    """
    if isinstance(agent, BalsaAgent):
        return {name: latency for name, (_, latency) in agent.evaluate(queries).items()}
    if isinstance(agent, BaoAgent):
        def plan(query):
            return agent.plan(PlanRequest(query=query)).best_plan
    else:
        plan = agent.plan_query
    engine = agent.environment.engine
    return {query.name: engine.execute(query, plan(query)).latency for query in queries}
