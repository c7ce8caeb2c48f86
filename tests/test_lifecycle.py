"""Tests for the model lifecycle: registry, background trainer, shadow gate,
hot swap, cache warming, and the serving-path invariants across swaps."""

from __future__ import annotations

import dataclasses
import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.costmodel.cout import CoutCostModel
from repro.lifecycle import (
    BackgroundTrainer,
    LifecycleError,
    ModelLifecycle,
    ModelRegistry,
    ModelSnapshot,
    ShadowEvaluator,
)
from repro.lifecycle import registry as registry_module
from repro.lifecycle.shadow import shadow_probe
from repro.model.trainer import ValueNetworkTrainer
from repro.model.value_network import (
    StateDictMismatchError,
    ValueNetwork,
    ValueNetworkConfig,
)
from repro.optimizer.quickpick import random_plan
from repro.planning.adapters import BeamPlanner
from repro.planning.envelope import PlanResult
from repro.search.beam import BeamSearchPlanner
from repro.service.service import PlannerService
from repro.utils.rng import derive_seed, new_rng
from repro.workloads.benchmark import make_job_benchmark, make_tpch_benchmark


def small_config(seed: int = 0) -> ValueNetworkConfig:
    return ValueNetworkConfig(
        query_hidden=16, query_embedding=8, tree_channels=(16, 8), head_hidden=8,
        seed=seed,
    )


def small_network(featurizer, seed: int = 0) -> ValueNetwork:
    return ValueNetwork(featurizer, small_config(seed))


def small_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False)


@pytest.fixture(scope="module")
def bench():
    return make_job_benchmark(
        fact_rows=300, num_queries=10, num_templates=4, test_size=3,
        seed=0, size_range=(3, 5),
    )


@pytest.fixture(scope="module")
def queries(bench):
    return list(bench.train_queries)


@pytest.fixture(scope="module")
def cost_model(bench):
    return CoutCostModel(bench.environment().estimator)


@pytest.fixture(scope="module")
def experience(bench, queries, cost_model):
    """Featurised (random plan, cout-cost) experience: dense enough that a
    value network trained on it reliably rank-orders plans by cost."""
    examples, labels = [], []
    for query in queries:
        seen: set[str] = set()
        for index in range(40):
            plan = random_plan(query, new_rng(derive_seed(0, query.name, index)))
            fingerprint = plan.fingerprint()
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            examples.append(bench.featurizer.featurize(query, plan))
            labels.append(cost_model.cost(query, plan))
    return examples, labels


@pytest.fixture(scope="module")
def trained_serving(bench, experience) -> ValueNetwork:
    """A network fitted to the cout costs until its ranking is trustworthy.

    Never mutated by tests: candidates are always clones, so the shadow-gate
    margins computed from this network are deterministic per seed.
    """
    network = ValueNetwork(
        bench.featurizer,
        ValueNetworkConfig(
            query_hidden=32, query_embedding=16, tree_channels=(32, 16),
            head_hidden=16, seed=0,
        ),
    )
    examples, labels = experience
    ValueNetworkTrainer(
        network, learning_rate=3e-3, max_epochs=60, validation_fraction=0.0, seed=0
    ).fit(examples, labels)
    return network


def sabotage(network: ValueNetwork) -> ValueNetwork:
    """A clone whose prediction order is inverted (an injected regression).

    Negating the output head makes beam search prefer exactly the plans the
    original model considered worst, so a trained original yields a candidate
    that deterministically regresses on the probe workload.
    """
    bad = network.clone()
    bad.head_fc2.weight.value = -bad.head_fc2.weight.value
    bad.head_fc2.bias.value = -bad.head_fc2.bias.value
    bad.bump_version()
    return bad


# ---------------------------------------------------------------------- #
# state_dict round trips
# ---------------------------------------------------------------------- #
class TestStateDict:
    def test_round_trip_reproduces_predictions(self, bench, queries):
        source = small_network(bench.featurizer, seed=3)
        target = small_network(bench.featurizer, seed=9)
        target.load_state_dict(source.state_dict())
        planner = small_planner()
        query = queries[0]
        plans = planner.search(query, source).plans
        np.testing.assert_allclose(
            source.predict(query, plans), target.predict(query, plans)
        )
        assert target.label_mean == source.label_mean
        assert target.label_std == source.label_std

    def test_load_bumps_version(self, bench):
        network = small_network(bench.featurizer)
        before = network.version_key()
        network.load_state_dict(network.state_dict())
        assert network.version_key() != before

    def test_shape_mismatch_raises_typed_error(self, bench):
        small = small_network(bench.featurizer)
        wide = ValueNetwork(
            bench.featurizer,
            ValueNetworkConfig(
                query_hidden=24, query_embedding=8, tree_channels=(16, 8), head_hidden=8
            ),
        )
        with pytest.raises(StateDictMismatchError, match="shape mismatch"):
            wide.load_state_dict(small.state_dict())

    def test_featurizer_mismatch_raises_typed_error(self, bench):
        network = small_network(bench.featurizer)
        state = network.state_dict()
        state["featurizer_signature"] = ("qpf-v1", "other-schema", (), 1, 2)
        with pytest.raises(StateDictMismatchError, match="featurizer mismatch"):
            network.load_state_dict(state)

    def test_missing_and_unexpected_parameters_raise(self, bench):
        network = small_network(bench.featurizer)
        state = network.state_dict()
        weights = dict(state["weights"])
        removed = sorted(weights)[0]
        del weights[removed]
        weights["bogus.weight"] = np.zeros(3)
        state["weights"] = weights
        with pytest.raises(StateDictMismatchError, match="do not line up"):
            network.load_state_dict(state)

    def test_non_state_dict_rejected(self, bench):
        network = small_network(bench.featurizer)
        with pytest.raises(StateDictMismatchError, match="missing 'weights'"):
            network.load_state_dict({"just": "weights?"})


# ---------------------------------------------------------------------- #
# ModelRegistry
# ---------------------------------------------------------------------- #
class TestModelRegistry:
    def test_register_assigns_monotone_versions(self, bench):
        registry = ModelRegistry()
        first = registry.register(small_network(bench.featurizer), source="a")
        second = registry.register(small_network(bench.featurizer), source="b")
        assert (first.version, second.version) == (1, 2)
        assert registry.versions() == [1, 2]
        assert registry.latest().version == 2

    def test_snapshots_are_immutable_against_later_training(
        self, bench, queries, experience
    ):
        network = small_network(bench.featurizer)
        registry = ModelRegistry()
        snapshot = registry.register(network, source="pre-train")
        planner = small_planner()
        query = queries[0]
        plans = planner.search(query, network).plans
        before = network.predict(query, plans).copy()

        examples, labels = experience
        ValueNetworkTrainer(network, max_epochs=2, validation_fraction=0.0).fit(
            examples, labels
        )
        assert not np.allclose(before, network.predict(query, plans))

        restored = snapshot.restore(bench.featurizer)
        np.testing.assert_allclose(before, restored.predict(query, plans))

    def test_restored_network_has_fresh_identity(self, bench):
        registry = ModelRegistry()
        network = small_network(bench.featurizer)
        snapshot = registry.register(network)
        restored = snapshot.restore(bench.featurizer)
        assert restored.version_key() != network.version_key()

    def test_promote_rollback_chain(self, bench):
        registry = ModelRegistry()
        for _ in range(3):
            registry.register(small_network(bench.featurizer))
        assert registry.serving_version is None
        with pytest.raises(LifecycleError):
            registry.serving()
        registry.promote(1)
        registry.promote(2)
        registry.promote(3)
        assert registry.serving_version == 3
        assert registry.rollback().version == 2
        assert registry.rollback().version == 1
        with pytest.raises(LifecycleError, match="roll back"):
            registry.rollback()

    def test_retention_never_evicts_serving_chain(self, bench, monkeypatch):
        monkeypatch.setattr(registry_module, "RETENTION", 2)
        registry = ModelRegistry()
        registry.register(small_network(bench.featurizer))
        registry.promote(1)
        for _ in range(4):
            registry.register(small_network(bench.featurizer))
        versions = registry.versions()
        assert len(versions) == 2
        assert 1 in versions  # serving survives retention
        assert registry.latest().version == 5
        with pytest.raises(LifecycleError, match="unknown model version"):
            registry.get(2)

    def test_unknown_parent_rejected(self, bench):
        registry = ModelRegistry()
        with pytest.raises(LifecycleError, match="never registered"):
            registry.register(small_network(bench.featurizer), parent_version=7)

    def test_retention_survives_promote_every_round(self, bench, monkeypatch):
        """Regression: a promote-every-round workload (the pipelined agent)
        must never protect the whole serving history — that would evict each
        new candidate the moment it registers and crash the next promote."""
        monkeypatch.setattr(registry_module, "RETENTION", 4)
        registry = ModelRegistry()
        for _ in range(13):
            snapshot = registry.register(small_network(bench.featurizer))
            registry.promote(snapshot.version)  # must never raise
        assert registry.serving_version == 13
        assert len(registry) <= 4
        # The rollback target survives retention; rolling back still works.
        assert registry.rollback().version == 12


# ---------------------------------------------------------------------- #
# BackgroundTrainer
# ---------------------------------------------------------------------- #
class TestBackgroundTrainer:
    def test_fine_tunes_off_the_serving_network(self, bench, queries, experience):
        registry = ModelRegistry()
        serving = small_network(bench.featurizer)
        base_snapshot = registry.register(serving, source="baseline")
        registry.promote(base_snapshot.version)
        serving_version_key = serving.version_key()

        examples, labels = experience
        report = BackgroundTrainer(registry, max_epochs=2).train(
            serving,
            examples,
            labels,
            parent_version=base_snapshot.version,
            refit_label_transform=True,
        )
        # The candidate landed in the registry with lineage...
        assert report.snapshot.version == 2
        assert report.snapshot.parent_version == 1
        assert report.history.epochs_run > 0
        assert report.examples == len(examples)
        # ...and the serving network was never touched.
        assert serving.version_key() == serving_version_key

    def test_advance_starts_no_thread(
        self, bench, queries, cost_model, experience, trained_serving
    ):
        """Train, gate, swap and warm all run on the caller's thread."""
        service, registry, lifecycle = make_stack(
            bench, queries, cost_model, trained_serving
        )
        examples, labels = experience
        with service:
            lifecycle.baseline()
            before = set(threading.enumerate())
            decision = lifecycle.advance(examples, labels, refit_label_transform=True)
            assert not set(threading.enumerate()) - before
        assert decision.promoted, decision.reason

    def test_concurrent_advances_run_one_at_a_time(
        self, bench, queries, cost_model, experience, trained_serving
    ):
        """Two callers fine-tune and gate in turn: one round's train-to-gate
        span never overlaps another's."""
        service, registry, lifecycle = make_stack(
            bench, queries, cost_model, trained_serving
        )
        examples, labels = experience
        rounds = {"active": 0, "most": 0}
        train, gate = lifecycle.trainer.train, lifecycle.evaluate_and_apply

        def recording_train(*args, **kwargs):
            rounds["active"] += 1
            rounds["most"] = max(rounds["most"], rounds["active"])
            return train(*args, **kwargs)

        def recording_gate(snapshot):
            try:
                return gate(snapshot)
            finally:
                rounds["active"] -= 1

        lifecycle.trainer.train = recording_train
        lifecycle.evaluate_and_apply = recording_gate
        errors: list[BaseException] = []

        def advance():
            try:
                lifecycle.advance(examples, labels)
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        with service:
            lifecycle.baseline()
            callers = [threading.Thread(target=advance) for _ in range(2)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120.0)
                assert not caller.is_alive()
        assert not errors
        assert len(registry.decisions()) == 2
        assert rounds == {"active": 0, "most": 1}


# ---------------------------------------------------------------------- #
# Shadow evaluation
# ---------------------------------------------------------------------- #
class TestShadowGate:
    def test_clean_candidate_passes(self, bench, queries, cost_model, trained_serving):
        serving = trained_serving
        candidate = serving.clone()
        shadow = ShadowEvaluator(
            queries, cost_model.cost, max_regression=1.3, planner=small_planner()
        )
        decision = shadow.evaluate(
            candidate, serving, candidate_version=2, serving_version=1
        )
        assert decision.promoted
        assert decision.reason.startswith("passed")
        assert len(decision.probes) == len(queries)
        # Identical weights choose identical plans: exact parity.
        assert decision.max_regression == pytest.approx(1.0)
        assert decision.total_regression == pytest.approx(1.0)

    def test_injected_regression_is_rejected(
        self, bench, queries, cost_model, trained_serving
    ):
        serving = trained_serving
        candidate = sabotage(serving)
        shadow = ShadowEvaluator(
            queries, cost_model.cost, max_regression=1.3, planner=small_planner()
        )
        decision = shadow.evaluate(
            candidate, serving, candidate_version=2, serving_version=1
        )
        assert not decision.promoted
        assert "regression bound violated" in decision.reason
        assert decision.max_regression > shadow.max_regression or (
            decision.total_regression > shadow.max_total_regression
        )
        worst = max(decision.probes, key=lambda p: p.regression)
        assert worst.candidate_cost > worst.serving_cost

    def test_duplicate_probe_names_are_judged_by_position(
        self, queries, cost_model, trained_serving
    ):
        """Regression: probe costs were once keyed by query name, so the last
        of two same-named probes supplied both probes' costs and a candidate
        regressing only on the first one passed."""
        serving = trained_serving
        candidate = sabotage(serving)
        full = ShadowEvaluator(
            queries, cost_model.cost, max_regression=1.3, planner=small_planner()
        ).evaluate(candidate, serving)
        worst = max(full.probes, key=lambda p: p.regression)
        assert worst.regression > 1.3
        parity = next(p for p in full.probes if p.regression <= 1.0)
        by_name = {query.name: query for query in queries}
        first = by_name[worst.query_name]
        impostor = dataclasses.replace(by_name[parity.query_name], name=first.name)

        decision = ShadowEvaluator(
            [first, impostor], cost_model.cost, max_regression=1.3,
            planner=small_planner(),
        ).evaluate(candidate, serving)
        assert not decision.promoted
        assert "per-query regression bound violated" in decision.reason
        assert [p.regression for p in decision.probes] == pytest.approx(
            [worst.regression, parity.regression]
        )

    def test_candidates_resolvable_by_version_in_registry(
        self, bench, queries, cost_model
    ):
        """The gate is handed networks, not names: both sides are resolved by
        version from the model registry, and the decision records those
        versions."""
        registry = ModelRegistry()
        serving_version = registry.register(small_network(bench.featurizer, seed=0)).version
        candidate_version = registry.register(small_network(bench.featurizer, seed=1)).version
        shadow = ShadowEvaluator(queries[:2], cost_model.cost, planner=small_planner())
        decision = shadow.evaluate(
            registry.restore(candidate_version, bench.featurizer),
            registry.restore(serving_version, bench.featurizer),
            candidate_version=candidate_version,
            serving_version=serving_version,
        )
        assert (decision.candidate_version, decision.serving_version) == (2, 1)
        assert len(decision.probes) == 2
        assert all(p.candidate_cost > 0 and p.serving_cost > 0 for p in decision.probes)

    def test_versioned_entries_bounded_across_evaluations(
        self, bench, queries, cost_model
    ):
        """Regression: repeated evaluations must not accumulate one pinned
        weight copy per round; once ``evaluate`` returns, nothing it built
        keeps that round's candidate alive."""
        shadow = ShadowEvaluator(queries[:2], cost_model.cost, planner=small_planner())
        serving = small_network(bench.featurizer, seed=0)
        alive = []
        for version in range(2, 6):
            candidate = small_network(bench.featurizer, seed=version)
            decision = shadow.evaluate(
                candidate, serving, candidate_version=version, serving_version=1
            )
            assert decision.candidate_version == version
            alive.append(weakref.ref(candidate))
            del candidate
        gc.collect()
        assert [ref() for ref in alive] == [None] * 4

    def test_a_side_without_a_plan_is_named_with_its_version(
        self, bench, queries, cost_model
    ):
        class NoPlan:
            name = "beam"

            def plan(self, request):
                return PlanResult(plans=[], predicted_latencies=[])

        beam = BeamPlanner(small_network(bench.featurizer), planner=small_planner())
        versions = {"candidate_version": 9, "serving_version": 8}
        with pytest.raises(LifecycleError, match=r"shadow candidate planner \(version 9\)"):
            shadow_probe(queries[0], NoPlan(), beam, cost_model.cost, **versions)
        with pytest.raises(LifecycleError, match=r"shadow serving planner \(version 8\)"):
            shadow_probe(queries[0], beam, NoPlan(), cost_model.cost, **versions)


# ---------------------------------------------------------------------- #
# Hot swap + cache warming through the full manager
# ---------------------------------------------------------------------- #
def make_stack(
    bench, queries, cost_model, network, max_workers=2, scoring_backend=None,
    **shadow_kwargs,
):
    service = PlannerService(
        network, planner=small_planner(), max_workers=max_workers,
        scoring_backend=scoring_backend,
    )
    registry = ModelRegistry()
    shadow_kwargs.setdefault("max_regression", 1.3)
    shadow = ShadowEvaluator(
        queries, cost_model.cost, planner=small_planner(), **shadow_kwargs
    )
    lifecycle = ModelLifecycle(
        service, registry, shadow,
        trainer=BackgroundTrainer(registry, max_epochs=2),
    )
    return service, registry, lifecycle


class TestLifecycleEndToEnd:
    # The hot-swap invariants must hold identically whether scoring runs on
    # the planning threads or in scorer processes following
    # published snapshots (promotions propagate by version key; in-flight
    # searches never see mixed-version batches).
    @pytest.mark.parametrize("scoring_backend", ["inproc", "process"])
    def test_swap_under_traffic_with_warm_cache(
        self, bench, queries, cost_model, experience, trained_serving,
        scoring_backend,
    ):
        serving = trained_serving
        service, registry, lifecycle = make_stack(
            bench, queries, cost_model, serving, max_workers=4,
            scoring_backend=scoring_backend,
        )
        examples, labels = experience
        failures: list[BaseException] = []
        responses = []
        stop = threading.Event()

        def traffic():
            while not stop.is_set():
                try:
                    responses.extend(service.plan_many(queries))
                except BaseException as error:  # noqa: BLE001 - recorded for assertion
                    failures.append(error)
                    return

        thread = threading.Thread(target=traffic)
        with service:
            lifecycle.baseline()
            thread.start()
            try:
                # Background fine-tune + shadow gate + hot swap + warming,
                # all while plan_many traffic is in flight.
                decision = lifecycle.advance(examples, labels, refit_label_transform=True)
            finally:
                stop.set()
                thread.join()

            assert decision.promoted, decision.reason
            assert registry.serving_version == decision.candidate_version
            metrics = service.metrics()
            assert metrics.swaps == 1
            # The warmer raced live traffic for the new version's entries;
            # whoever planned them, every probe is warm (asserted below).
            assert metrics.warmed_entries <= len(queries)
            # Zero dropped requests: every response carries plans, no errors.
            assert not failures
            assert all(response.plans for response in responses)

            # Steady-state traffic right after the swap stays on the warm path.
            service.reset_metrics()
            post = service.plan_many(queries)
            hit_rate = sum(r.cache_hit for r in post) / len(post)
            assert hit_rate >= 0.9
            # The post-swap plans come from the promoted candidate.
            candidate = registry.serving().restore(bench.featurizer)
            planner = small_planner()
            for query, response in zip(queries, post):
                expected = planner.search(query, candidate)
                assert response.best_plan.fingerprint() == (
                    expected.best_plan.fingerprint()
                )

    def test_injected_regression_keeps_version_n_serving(
        self, bench, queries, cost_model, trained_serving
    ):
        serving = trained_serving
        service, registry, lifecycle = make_stack(
            bench, queries, cost_model, serving
        )
        with service:
            lifecycle.baseline()
            before = service.plan_many(queries)
            bad = sabotage(serving)
            snapshot = registry.register(bad, source="sabotaged")
            decision = lifecycle.evaluate_and_apply(snapshot)

            assert not decision.promoted
            assert registry.serving_version == 1  # version N keeps serving
            metrics = service.metrics()
            assert metrics.swaps == 0
            assert metrics.promotions_rejected == 1
            assert registry.decisions()[-1] is decision
            # Traffic still served by version N: repeated queries hit its cache.
            after = service.plan_many(queries)
            assert all(response.cache_hit for response in after)
            for old, new in zip(before, after):
                assert old.best_plan.fingerprint() == new.best_plan.fingerprint()

    def test_rollback_restores_previous_serving_version(
        self, bench, queries, cost_model, experience, trained_serving
    ):
        serving = trained_serving
        service, registry, lifecycle = make_stack(
            bench, queries, cost_model, serving
        )
        examples, labels = experience
        planner = small_planner()
        expected_v1 = {
            q.name: planner.search(q, serving).best_plan.fingerprint() for q in queries
        }
        with service:
            lifecycle.baseline()
            decision = lifecycle.advance(examples, labels, refit_label_transform=True)
            assert decision.promoted
            assert registry.serving_version == 2

            snapshot = lifecycle.rollback(source="test")
            assert snapshot.version == 1
            assert registry.serving_version == 1
            metrics = service.metrics()
            assert metrics.swaps == 2
            # No traffic competed with the warmer here: both swaps warmed
            # the full probe workload.
            assert metrics.warmed_entries == 2 * len(queries)
            # Post-rollback traffic plans exactly like version 1 again (and
            # is already warm, because rollback rewarms the known workload).
            post = service.plan_many(queries)
            assert all(response.cache_hit for response in post)
            for query, response in zip(queries, post):
                assert response.best_plan.fingerprint() == expected_v1[query.name]

    def test_advance_without_explicit_baseline_auto_registers(
        self, bench, queries, cost_model, experience, trained_serving
    ):
        """A lifecycle used without baseline() must not shadow-score the live
        serving object; it registers an implicit baseline copy instead."""
        service, registry, lifecycle = make_stack(
            bench, queries, cost_model, trained_serving
        )
        examples, labels = experience
        with service:
            decision = lifecycle.advance(examples, labels, refit_label_transform=True)
            assert decision.promoted, decision.reason
            sources = [registry.get(v).source for v in registry.versions()]
            assert "auto-baseline" in sources
            assert registry.serving_version == decision.candidate_version

    def test_swap_rejects_mismatched_featurizer(self, bench):
        # A different schema (TPC-H vs IMDb) is a genuinely different input
        # space; same-schema benchmarks share a signature and may swap.
        other_bench = make_tpch_benchmark(base_rows=200, queries_per_template=1)
        serving = small_network(bench.featurizer)
        foreign = small_network(other_bench.featurizer)
        assert foreign.featurizer.signature() != serving.featurizer.signature()
        with PlannerService(serving, planner=small_planner()) as service:
            with pytest.raises(StateDictMismatchError, match="hot-swap"):
                service.swap_network(foreign)


# ---------------------------------------------------------------------- #
# The stale-cache window (regression test with a forced interleaving)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("scoring_backend", ["inproc", "process"])
class TestStaleCacheWindow:
    def test_swap_interleaved_with_inflight_plan(
        self, bench, queries, scoring_backend
    ):
        """A swap landing mid-search must not poison either version's cache.

        The interleaving is forced: the in-flight search triggers the swap
        (and a bump_version on the old network) before it returns, exactly
        the window where a version read at admission and a store at
        completion disagree.  Requests admitted after the swap must plan
        with the new network, and — after rolling back — requests must plan
        with the old network again, never with a cross-version entry.
        """
        net_a = small_network(bench.featurizer, seed=0)
        net_b = small_network(bench.featurizer, seed=5)
        query = queries[0]
        box: dict = {"fired": False}

        class SwapMidSearch(BeamSearchPlanner):
            def search(self, q, network, score_fn=None, top_k=None, deadline=None):
                result = super().search(
                    q, network, score_fn=score_fn, top_k=top_k, deadline=deadline
                )
                if not box["fired"]:
                    box["fired"] = True
                    box["service"].swap_network(net_b)
                    net_a.bump_version()  # interleave a weight-version bump too
                return result

        planner = SwapMidSearch(beam_size=3, top_k=2, enumerate_scan_operators=False)
        reference = small_planner()
        with PlannerService(
            net_a, planner=planner, max_workers=2, scoring_backend=scoring_backend
        ) as service:
            box["service"] = service
            inflight = service.plan(query)  # triggers the swap mid-request
            assert inflight.plans  # the in-flight request was not dropped

            # Admitted after the swap: must miss and plan with net_b.
            post_swap = service.plan(query)
            assert not post_swap.cache_hit
            expected_b = reference.search(query, net_b)
            assert post_swap.best_plan.fingerprint() == (
                expected_b.best_plan.fingerprint()
            )

            # Roll back to net_a: the in-flight result from the swap window
            # must not satisfy this request either (its provenance spans two
            # versions), and planning must reflect net_a's current weights.
            service.swap_network(net_a)
            box["fired"] = True  # keep the hijack from firing again
            post_rollback = service.plan(query)
            assert not post_rollback.cache_hit
            expected_a = reference.search(query, net_a)
            assert post_rollback.best_plan.fingerprint() == (
                expected_a.best_plan.fingerprint()
            )

    def test_entry_scored_by_old_version_never_served_after_swap(
        self, bench, queries, scoring_backend
    ):
        net_a = small_network(bench.featurizer, seed=0)
        net_b = small_network(bench.featurizer, seed=5)
        query = queries[1]
        reference = small_planner()
        with PlannerService(
            net_a, planner=small_planner(), max_workers=1,
            scoring_backend=scoring_backend,
        ) as service:
            first = service.plan(query)
            assert service.plan(query).cache_hit  # warm under version N
            service.swap_network(net_b)
            post = service.plan(query)
            assert not post.cache_hit  # the N entry must not satisfy N+1 traffic
            expected = reference.search(query, net_b)
            assert post.best_plan.fingerprint() == expected.best_plan.fingerprint()
            # ...even when N's plans happen to differ from N+1's.
            if first.best_plan.fingerprint() != expected.best_plan.fingerprint():
                assert post.best_plan.fingerprint() != first.best_plan.fingerprint()


# ---------------------------------------------------------------------- #
# ServiceMetrics under concurrent swap + plan_many
# ---------------------------------------------------------------------- #
class TestMetricsUnderConcurrentSwap:
    def test_counters_monotone_and_conserved(self, bench, queries):
        networks = [small_network(bench.featurizer, seed=s) for s in range(3)]
        with PlannerService(
            networks[0], planner=small_planner()
        ) as service:
            snapshots = []
            errors: list[BaseException] = []
            done = threading.Event()

            def traffic():
                try:
                    for _ in range(6):
                        service.plan_many(queries)
                finally:
                    done.set()

            def swapper():
                for network in networks[1:]:
                    time.sleep(0.01)
                    service.swap_network(network)
                    service.warm_cache(queries)

            threads = [
                threading.Thread(target=traffic),
                threading.Thread(target=swapper),
            ]
            for thread in threads:
                thread.start()
            while not done.is_set():
                try:
                    snapshots.append(service.metrics())
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)
                    break
                time.sleep(0.002)
            for thread in threads:
                thread.join()
            snapshots.append(service.metrics())

        assert not errors
        monotone_fields = (
            "requests", "cache_hits", "cache_misses", "coalesced_requests",
            "swaps", "warmed_entries", "total_states_expanded",
            "total_plans_scored",
        )
        for earlier, later in zip(snapshots, snapshots[1:]):
            for name in monotone_fields:
                assert getattr(later, name) >= getattr(earlier, name), name
        final = snapshots[-1]
        # No lost updates: every served request is exactly one of hit,
        # fresh search, or coalesced join (no deadlines were used).
        assert final.requests == (
            final.cache_hits + final.cache_misses + final.coalesced_requests
        )
        assert final.swaps == 2
        assert final.warmed_entries > 0


class TestSnapshotTypes:
    def test_snapshot_fields_and_frozen_weights(self, bench):
        registry = ModelRegistry()
        network = small_network(bench.featurizer)
        snapshot = registry.register(network, source="test", tag="t")
        assert isinstance(snapshot, ModelSnapshot)
        assert snapshot.featurizer_signature == bench.featurizer.signature()
        assert snapshot.network_config == network.config
        weights = snapshot.state["weights"]
        name = next(iter(weights))
        with pytest.raises(ValueError):
            weights[name][0] = 123.0  # read-only snapshot arrays
