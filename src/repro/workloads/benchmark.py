"""Benchmark bundles: database + engine + workload splits + expert baselines.

A :class:`WorkloadBenchmark` is the top-level object examples, tests and the
experiment runners build on.  ``make_job_benchmark`` / ``make_tpch_benchmark``
produce ready-to-use bundles at a configurable data scale and workload size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.agent.environment import BalsaEnvironment
from repro.cardinality.base import CardinalityEstimator
from repro.cardinality.estimator import HistogramEstimator
from repro.catalog.datagen import generate_database
from repro.catalog.imdb import make_imdb_schema
from repro.catalog.tpch import make_tpch_schema
from repro.execution.engine import ExecutionEngine
from repro.execution.latency import LatencyModel
from repro.featurization.featurizer import QueryPlanFeaturizer
from repro.optimizer.expert import (
    ExpertOptimizer,
    make_commdb_optimizer,
    make_postgres_optimizer,
)
from repro.plans.nodes import PlanNode
from repro.sql.query import Query, QuerySet
from repro.storage.database import Database
from repro.workloads.job import make_ext_job_queries, make_job_queries
from repro.workloads.splits import random_split, slow_split, template_split, slowest_templates
from repro.workloads.tpch import make_tpch_queries

if TYPE_CHECKING:
    from repro.model.value_network import ValueNetwork
    from repro.planning.registry import PlannerRegistry


@dataclass
class WorkloadBenchmark:
    """Everything needed to train and evaluate optimizers on one workload.

    Attributes:
        name: Benchmark name (``"job"``, ``"job_slow"``, ``"tpch"``, ...).
        database: The synthetic database.
        engine: The execution engine.
        estimator: The histogram cardinality estimator.
        featurizer: Shared query/plan featuriser.
        train_queries: Training split.
        test_queries: Test split.
        experts: Expert optimizers by name (``"postgres"``, ``"commdb"``).
        template_of: Query name -> template id (JOB-like workloads only).
        extra_queries: Additional query sets (e.g. ``"ext_job"``).
    """

    name: str
    database: Database
    engine: ExecutionEngine
    estimator: CardinalityEstimator
    featurizer: QueryPlanFeaturizer
    train_queries: QuerySet
    test_queries: QuerySet
    experts: dict[str, ExpertOptimizer] = field(default_factory=dict)
    template_of: dict[str, int] = field(default_factory=dict)
    extra_queries: dict[str, QuerySet] = field(default_factory=dict)
    _expert_plan_cache: dict[tuple[str, str], tuple[PlanNode, float]] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------ #
    # Environments
    # ------------------------------------------------------------------ #
    def environment(self) -> BalsaEnvironment:
        """A fresh agent environment sharing this benchmark's substrate."""
        return BalsaEnvironment(
            database=self.database,
            engine=self.engine,
            estimator=self.estimator,
            featurizer=self.featurizer,
            train_queries=self.train_queries,
            test_queries=self.test_queries,
        )

    def all_queries(self) -> list[Query]:
        """Train + test queries."""
        return list(self.train_queries) + list(self.test_queries)

    def planner_registry(
        self, network: ValueNetwork | None = None, **registry_kwargs
    ) -> PlannerRegistry:
        """A registry with the nine standard planners wired to this benchmark.

        Args:
            network: Value network for the ``"beam"`` entry (a fresh untrained
                one is built when omitted).
            **registry_kwargs: Forwarded to
                :func:`~repro.planning.adapters.registry_from_benchmark`
                (``bao=``/``neo=`` overrides, ``seed``, ``install``...).
        """
        from repro.planning.adapters import registry_from_benchmark

        return registry_from_benchmark(self, network, **registry_kwargs)

    # ------------------------------------------------------------------ #
    # Expert baselines
    # ------------------------------------------------------------------ #
    def expert(self, name: str = "postgres") -> ExpertOptimizer:
        """Look up an expert optimizer by name."""
        try:
            return self.experts[name]
        except KeyError:
            raise KeyError(
                f"unknown expert {name!r}; available: {sorted(self.experts)}"
            ) from None

    def expert_plan_and_latency(
        self, query: Query, expert: str = "postgres"
    ) -> tuple[PlanNode, float]:
        """The expert's plan for ``query`` and its executed latency (cached).

        Cached by the query's fingerprint, never its name: two structurally
        different queries may share a name.
        """
        key = (expert, query.fingerprint())
        if key not in self._expert_plan_cache:
            plan, _ = self.expert(expert).optimize_with_cost(query)
            result = self.engine.execute(query, plan)
            self._expert_plan_cache[key] = (plan, result.latency)
        return self._expert_plan_cache[key]

    def expert_runtimes(
        self, queries=None, expert: str = "postgres"
    ) -> dict[str, float]:
        """Per-query expert latencies for ``queries`` (default: train + test)."""
        targets = list(queries) if queries is not None else self.all_queries()
        return {
            query.name: self.expert_plan_and_latency(query, expert)[1]
            for query in targets
        }

    def expert_workload_runtime(self, queries, expert: str = "postgres") -> float:
        """Sum of the expert's per-query latencies over ``queries``."""
        runtimes = self.expert_runtimes(queries, expert)
        return float(sum(runtimes.values()))


# ---------------------------------------------------------------------- #
# Factories
# ---------------------------------------------------------------------- #
def _assemble(
    name: str,
    database: Database,
    train_queries: QuerySet,
    test_queries: QuerySet,
    latency_model: LatencyModel | None,
    template_of: dict[str, int] | None = None,
    extra_queries: dict[str, QuerySet] | None = None,
    max_dp_tables: int = 9,
) -> WorkloadBenchmark:
    engine = ExecutionEngine(database, latency_model=latency_model)
    estimator = HistogramEstimator(database)
    featurizer = QueryPlanFeaturizer(database.schema, estimator)
    experts = {
        "postgres": make_postgres_optimizer(database, estimator, max_dp_tables=max_dp_tables),
        "commdb": make_commdb_optimizer(database, estimator, max_dp_tables=max_dp_tables + 2),
    }
    return WorkloadBenchmark(
        name=name,
        database=database,
        engine=engine,
        estimator=estimator,
        featurizer=featurizer,
        train_queries=train_queries,
        test_queries=test_queries,
        experts=experts,
        template_of=template_of or {},
        extra_queries=extra_queries or {},
    )


def make_job_benchmark(
    split: str = "random",
    scale: float = 1.0,
    fact_rows: int = 2000,
    num_queries: int = 113,
    num_templates: int = 33,
    test_size: int = 19,
    seed: int = 0,
    size_range: tuple[int, int] = (4, 12),
    include_ext_job: bool = False,
    latency_model: LatencyModel | None = None,
    max_dp_tables: int = 9,
) -> WorkloadBenchmark:
    """Build a JOB-like benchmark.

    Args:
        split: ``"random"`` (JOB), ``"slow"`` (JOB Slow) or ``"slow_templates"``
            (the 4-slowest-templates split of §8.5).
        scale: Data-scale multiplier.
        fact_rows: Base rows of the ``title`` table at scale 1.0.
        num_queries: Workload size (113 in the paper).
        num_templates: Number of join templates (33 in the paper).
        test_size: Test-set size for random/slow splits (19 in the paper).
        seed: Root seed for data and workload generation.
        size_range: Min/max relations per join template.
        include_ext_job: Also generate the Ext-JOB-like out-of-distribution
            query set (exposed as ``extra_queries["ext_job"]``).
        latency_model: Optional custom latency model.
        max_dp_tables: DP cutover threshold of the expert optimizers.

    Returns:
        The assembled :class:`WorkloadBenchmark`.
    """
    schema = make_imdb_schema(fact_rows=fact_rows)
    database = generate_database(schema, scale=scale, seed=seed)
    queries, template_of = make_job_queries(
        num_queries=num_queries,
        num_templates=num_templates,
        seed=seed,
        size_range=size_range,
    )

    if split == "random":
        train, test = random_split(queries, test_size=test_size, seed=seed, name="job")
        name = "job"
    elif split in ("slow", "slow_templates"):
        # The slow splits need expert runtimes; assemble a temporary benchmark
        # on the same database to compute them, then re-split.
        temporary = _assemble(
            "job_tmp",
            database,
            QuerySet("tmp/train", list(queries)),
            QuerySet("tmp/test", []),
            latency_model,
            max_dp_tables=max_dp_tables,
        )
        runtimes = temporary.expert_runtimes(queries)
        if split == "slow":
            train, test = slow_split(queries, runtimes, test_size=test_size)
            name = "job_slow"
        else:
            worst = slowest_templates(queries, template_of, runtimes, num_templates=4)
            train, test = template_split(queries, template_of, worst)
            name = "job_slow_templates"
    else:
        raise ValueError(f"unknown split {split!r}")

    extra: dict[str, QuerySet] = {}
    if include_ext_job:
        extra["ext_job"] = QuerySet("ext_job", make_ext_job_queries(seed=seed + 1234))

    return _assemble(
        name, database, train, test, latency_model,
        template_of=template_of, extra_queries=extra, max_dp_tables=max_dp_tables,
    )


def make_tpch_benchmark(
    scale: float = 1.0,
    base_rows: int = 1500,
    queries_per_template: int = 10,
    seed: int = 0,
    latency_model: LatencyModel | None = None,
) -> WorkloadBenchmark:
    """Build the TPC-H-like benchmark (templates 3,5,7,8,12,13,14 / 10)."""
    schema = make_tpch_schema(base_rows=base_rows)
    database = generate_database(schema, scale=scale, seed=seed)
    train_queries, test_queries = make_tpch_queries(
        queries_per_template=queries_per_template, seed=seed
    )
    return _assemble(
        "tpch",
        database,
        QuerySet("tpch/train", train_queries),
        QuerySet("tpch/test", test_queries),
        latency_model,
    )
