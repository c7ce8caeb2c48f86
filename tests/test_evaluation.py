"""Tests for metrics, reporting, the experiment runner and the figure views."""

import json
import math
from dataclasses import replace

import pytest

from repro.agent.balsa import BalsaAgent
from repro.evaluation import figures
from repro.evaluation.experiments import (
    COMPOSITION_KEYS,
    CURVE_KEYS,
    BundleRecipe,
    ExperimentRunner,
    bundle,
    spec,
)
from repro.evaluation.metrics import (
    median_and_range,
    normalized_runtime,
    per_query_speedups,
    speedup,
    workload_runtime,
)
from repro.evaluation.reporting import format_series, format_table


class TestMetrics:
    def test_workload_runtime(self):
        assert workload_runtime({"a": 1.0, "b": 2.5}) == 3.5

    def test_normalized_runtime_and_speedup(self):
        ours = {"a": 1.0, "b": 1.0}
        expert = {"a": 2.0, "b": 2.0, "c": 5.0}
        assert normalized_runtime(ours, expert) == pytest.approx(0.5)
        assert speedup(ours, expert) == pytest.approx(2.0)

    def test_normalized_runtime_zero_expert_rejected(self):
        with pytest.raises(ValueError):
            normalized_runtime({"a": 1.0}, {"a": 0.0})

    def test_per_query_speedups(self):
        speedups = per_query_speedups({"a": 0.5}, {"a": 1.0})
        assert speedups["a"] == pytest.approx(2.0)
        with pytest.raises(ValueError):
            per_query_speedups({"a": 0.0}, {"a": 1.0})

    def test_median_and_range(self):
        median, low, high = median_and_range([3.0, 1.0, 2.0])
        assert (median, low, high) == (2.0, 1.0, 3.0)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", 2]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text
        assert "bb" in text

    def test_format_series(self):
        text = format_series({"x": [1.0, 2.0], "y": [3.0]})
        assert "iteration" in text
        assert "nan" in text  # padded missing value


#: Unit-sized stand-ins for the figures' bundles (seconds, not minutes).
UNIT_JOB = dict(fact_rows=300, num_queries=8, num_templates=4, test_size=2, size_range=(3, 5))
UNIT = bundle("job", split="random", **UNIT_JOB)
UNIT_TPCH = dict(base_rows=200, queries_per_template=1)


def unit_sized(value):
    """Figure specs moved onto unit-sized bundles (same split), two iterations."""
    if isinstance(value, dict):
        return {key: unit_sized(item) for key, item in value.items()}
    args = dict(value.bundle.args)
    if value.bundle.workload == "job":
        args = {**args, **UNIT_JOB}
    else:
        args = {**args, **UNIT_TPCH}
    return replace(
        value,
        bundle=bundle(value.bundle.workload, **args),
        iterations=min(value.iterations, 2),
    )


@pytest.fixture(scope="module")
def runner():
    runner = ExperimentRunner()
    yield runner
    runner.close()


class TestExperimentSpec:
    def test_config_applies_overrides_on_the_small_preset(self):
        experiment = spec(UNIT, seeds=(3,), iterations=5, use_timeouts=False)
        config = experiment.config(3)
        assert config.seed == 3 and config.num_iterations == 5
        assert not config.use_timeouts
        assert config.beam_size == 5  # BalsaConfig.small's
        with pytest.raises(ValueError):
            spec(UNIT, "oracle")

    def test_recipes_build_job_and_tpch_bundles(self):
        job = UNIT.build()
        tpch = bundle("tpch", **UNIT_TPCH).build()
        assert len(job.train_queries) == 6
        assert len(tpch.test_queries) == 1
        assert bundle("job", split="random", **UNIT_JOB) == UNIT  # hashable, order-free
        with pytest.raises(KeyError):
            BundleRecipe("bogus").build()


class TestExperimentRunner:
    def test_seeds_on_one_bundle_share_one_engine(self):
        runner = ExperimentRunner()
        (first,) = runner.run(spec(UNIT, iterations=2, seeds=(0,)))
        engine = runner.bundle(UNIT).engine
        materialised_by_first = engine.num_materialised
        again, second = runner.run(spec(UNIT, iterations=2, seeds=(0, 1)))
        assert again is first
        assert second.bundle is first.bundle and second.bundle.engine is engine
        materialised_by_second = engine.num_materialised - materialised_by_first
        assert 0 < materialised_by_second < materialised_by_first
        runner.close()

    def test_a_spec_listed_twice_trains_once(self, monkeypatch):
        calls = []
        train = BalsaAgent.train

        def counted(agent, *args, **kwargs):
            calls.append(agent)
            return train(agent, *args, **kwargs)

        monkeypatch.setattr(BalsaAgent, "train", counted)
        runner = ExperimentRunner()
        experiment = spec(UNIT, iterations=1)
        first, second = runner.run(experiment, experiment)
        # Restating a default is the same run, too.
        (third,) = runner.run(spec(UNIT, iterations=1, exploration="count"))
        assert first is second is third
        assert len(calls) == 1 and len(runner.runs) == 1
        runner.close()

    def test_each_curve_has_one_entry_per_iteration(self, runner, tmp_path):
        (run,) = runner.run(spec(UNIT, iterations=2))
        assert set(run.curves) == set(CURVE_KEYS)
        assert set(run.composition) == set(COMPOSITION_KEYS)
        assert all(len(series) == 2 for series in run.curves.values())
        assert all(len(series) == 2 for series in run.composition.values())
        assert run.simulation["dataset_size"] > 0
        assert list(run.train_latencies) == [q.name for q in run.bundle.train_queries]
        assert list(run.test_latencies) == [q.name for q in run.bundle.test_queries]
        (bao,) = runner.run(spec(UNIT, "bao", iterations=1))
        assert bao.curves == {} and len(bao.train_latencies) == 6
        runner.write(tmp_path / "curves.json", figures={"f": {"rows": []}})
        report = json.loads((tmp_path / "curves.json").read_text())
        assert report["figures"] == {"f": {"rows": []}}
        (written,) = [r for r in report["runs"] if r["label"] == "job balsa seed=0 iterations=2"]
        assert written["curves"]["unique_plans"] == run.curves["unique_plans"]
        assert "train / expert" in runner.table()


class TestExperimentRunners:
    """Each figure view returns the rows its old per-figure runner returned."""

    def test_random_vs_sim_bootstrap(self, runner):
        result = figures.random_vs_sim_bootstrap(
            runner, spec(UNIT, "random", seeds=(0, 1)), spec(UNIT, iterations=0)
        )
        assert len(result["random_slowdowns"]) == 2
        assert result["random_median_slowdown"] > 1.0
        assert result["sim_bootstrap_slowdown"] < result["random_max_slowdown"] * 2
        assert result["expert_runtime"] > 0

    def test_table2_simulation_efficiency(self, runner):
        result = figures.simulation_efficiency(runner, {"job": spec(UNIT, iterations=2)})
        (row,) = result["rows"]
        assert set(row) == {"workload", "dataset_size", "collection_minutes", "train_minutes"}
        assert row["dataset_size"] > 0
        assert row["collection_minutes"] >= 0
        assert row["train_minutes"] >= 0

    def test_figure6_speedups_structure(self, runner):
        result = figures.expert_speedups(
            runner, {"job": spec(UNIT, iterations=2)}, experts=("postgres",)
        )
        (row,) = result["rows"]
        assert row["workload"] == "job" and row["expert"] == "postgres"
        assert math.isfinite(row["train_speedup"]) and row["train_speedup"] > 0
        assert math.isfinite(row["test_speedup"]) and row["test_speedup"] > 0

    def test_figure14_planning_time(self, runner):
        result = figures.planning_time(
            runner, spec(UNIT, iterations=2), beam_sizes=(1, 2), top_ks=(1,)
        )
        assert [(r["beam_size"], r["top_k"]) for r in result["rows"]] == [(1, 1), (2, 1)]
        for row in result["rows"]:
            assert row["mean_planning_ms"] > 0
            assert row["mean_plans_scored"] > 0
            assert row["normalized_runtime"] > 0

    def test_figure18_behaviors(self, runner):
        result = figures.behaviors(runner, spec(UNIT, iterations=2))
        series = result["series"]
        lengths = {len(v) for v in series.values()}
        assert len(lengths) == 1 and lengths.pop() == 2
        for fractions in zip(series["merge_join"], series["nested_loop"], series["hash_join"]):
            assert abs(sum(fractions) - 1.0) < 1e-6
        assert set(result["expert"]) == set(series)

    @pytest.mark.parametrize("name", list(figures.FIGURES))
    def test_every_figure_and_claim_runs_on_unit_bundles(self, runner, name):
        figure = figures.FIGURES[name]
        result = figure.view(runner, **unit_sized(figure.specs))
        for claim in figure.claims.values():
            assert claim(result) in (True, False)
