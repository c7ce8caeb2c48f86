"""Tests for the pluggable scoring backends (`repro.scoring`).

Covers the wire format, the stateless ``ValueNetwork.from_state_dict``
contract, snapshot persistence to disk, the backend
matrix (inproc / process) behind one protocol, process-backend failure
modes (crash mid-batch surfaces a typed error, never a hang), the pool's
gauges and scorer environment, and the planner service's in-process
fallback after repeated backend failures.

The matrix half honours ``REPRO_SCORING_BACKENDS`` (comma-separated subset
of ``inproc,process``) so CI can shard one backend per job.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.featurization.featurizer import SignatureFeaturizer, canonical_signature
from repro.lifecycle import ModelRegistry, ModelSnapshot
from repro.model.value_network import (
    StateDictMismatchError,
    ValueNetwork,
    ValueNetworkConfig,
)
from repro.optimizer.quickpick import random_plan
from repro.planning.envelope import PlanRequest
from repro.plans.builders import all_join_operators, scan
from repro.plans.table import PlanTable
from repro.scoring import (
    InProcessBackend,
    ProcessPoolBackend,
    ScoringBackend,
    ScoringBackendError,
    ScoringBridgeStats,
    make_scoring_backend,
)
from repro.scoring.wire import pack_examples, unpack_examples
from repro.search.beam import BeamSearchPlanner
from repro.service.service import PlannerService
from repro.workloads.benchmark import make_job_benchmark

_ALL_BACKENDS = ("inproc", "process")
_requested = [
    name.strip()
    for name in os.environ.get("REPRO_SCORING_BACKENDS", "").split(",")
    if name.strip()
]
BACKENDS = tuple(name for name in _ALL_BACKENDS if name in _requested) or _ALL_BACKENDS


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
        fact_rows=300, num_queries=8, num_templates=4, test_size=2,
        seed=0, size_range=(3, 5),
    )


@pytest.fixture(scope="module")
def queries(bench):
    return list(bench.train_queries)


@pytest.fixture(scope="module")
def candidate_plans(bench, queries):
    """A handful of distinct plans per query to score."""
    network = small_network(bench.featurizer, seed=7)
    planner = BeamSearchPlanner(beam_size=4, top_k=4, enumerate_scan_operators=False)
    return {
        query.name: planner.search(query, network).plans for query in queries[:3]
    }


def crash_a_scorer(backend: ProcessPoolBackend, query, plans, network):
    """Submit with the crash hook armed: the scorer taking the task exits
    mid-batch."""
    backend._crash_next_submit = True
    return backend.submit(query, plans, version=network)


def make_backend(name: str, bench, provider=None, **kwargs) -> ScoringBackend:
    if name == "process":
        kwargs.setdefault("submit_timeout_seconds", 60.0)
        kwargs.setdefault("num_workers", 2)
    return make_scoring_backend(
        name, provider, featurizer=bench.featurizer, **kwargs
    )


# ---------------------------------------------------------------------- #
# Wire format
# ---------------------------------------------------------------------- #
class TestWireFormat:
    def test_round_trip_preserves_examples_and_predictions(
        self, bench, queries, candidate_plans
    ):
        network = small_network(bench.featurizer)
        query = queries[0]
        plans = candidate_plans[query.name]
        examples = [bench.featurizer.featurize(query, plan) for plan in plans]
        restored = unpack_examples(pack_examples(examples))
        assert len(restored) == len(examples)
        for original, copy in zip(examples, restored):
            np.testing.assert_array_equal(original.query_encoding, copy.query_encoding)
            np.testing.assert_array_equal(original.plan.features, copy.plan.features)
            np.testing.assert_array_equal(original.plan.left, copy.plan.left)
            np.testing.assert_array_equal(original.plan.right, copy.plan.right)
            assert original.plan.num_nodes == copy.plan.num_nodes
        np.testing.assert_allclose(
            network.predict_examples(restored), network.predict_examples(examples)
        )

    def test_payload_is_the_documented_layout_array_by_array(
        self, bench, queries, candidate_plans
    ):
        """The reference packer: one array at a time, in the layout's order."""
        query = queries[0]
        examples = [
            bench.featurizer.featurize(query, plan)
            for plan in candidate_plans[query.name]
        ]
        slots = [example.plan.features.shape[0] for example in examples]
        expected = b"FEW1" + struct.pack(
            "<4q", len(examples), examples[0].query_encoding.shape[0],
            examples[0].plan.features.shape[1], sum(slots),
        )
        for field, dtype in (
            (lambda e: e.query_encoding, "<f8"), (lambda e: e.plan.features, "<f8"),
            (lambda e: e.plan.left, "<i8"), (lambda e: e.plan.right, "<i8"),
        ):
            for example in examples:
                expected += np.ascontiguousarray(field(example), dtype=dtype).tobytes()
        expected += np.array(slots, dtype="<i8").tobytes()
        expected += np.array([e.plan.num_nodes for e in examples], dtype="<i8").tobytes()
        assert pack_examples(examples) == expected

    def test_zero_examples_rejected(self):
        with pytest.raises(ValueError, match="zero examples"):
            pack_examples([])

    def test_garbage_payload_rejected(self):
        with pytest.raises(Exception):
            unpack_examples(b"definitely not an npz archive")


# ---------------------------------------------------------------------- #
# Stateless restore: from_state_dict
# ---------------------------------------------------------------------- #
class TestStatelessRestore:
    def test_predict_from_state_matches_live_network(
        self, bench, queries, candidate_plans
    ):
        network = small_network(bench.featurizer, seed=3)
        query = queries[0]
        plans = candidate_plans[query.name]
        examples = [bench.featurizer.featurize(query, plan) for plan in plans]
        np.testing.assert_allclose(
            ValueNetwork.from_state_dict(network.state_dict()).predict_examples(examples),
            network.predict_examples(examples),
        )

    def test_from_state_dict_without_schema(self, bench):
        network = small_network(bench.featurizer, seed=1)
        restored = ValueNetwork.from_state_dict(network.state_dict())
        assert isinstance(restored.featurizer, SignatureFeaturizer)
        assert restored.featurizer.signature() == canonical_signature(
            bench.featurizer.signature()
        )
        assert restored.config == network.config

    def test_signature_featurizer_cannot_featurize(self, bench, queries):
        network = small_network(bench.featurizer)
        restored = ValueNetwork.from_state_dict(network.state_dict())
        with pytest.raises(TypeError, match="cannot featurize"):
            restored.featurizer.featurize(queries[0], None)

    def test_missing_signature_rejected(self, bench):
        network = small_network(bench.featurizer)
        state = network.state_dict()
        del state["featurizer_signature"]
        with pytest.raises(StateDictMismatchError, match="no featurizer_signature"):
            ValueNetwork.from_state_dict(state)

    def test_non_state_dict_rejected(self):
        with pytest.raises(StateDictMismatchError, match="missing 'weights'"):
            ValueNetwork.from_state_dict({"weights?": "nope"})


# ---------------------------------------------------------------------- #
# Snapshot persistence (np.savez on the state_dict format)
# ---------------------------------------------------------------------- #
class TestSnapshotPersistence:
    def test_save_load_round_trip(self, bench, queries, candidate_plans, tmp_path):
        network = small_network(bench.featurizer, seed=4)
        snapshot = ModelSnapshot.capture(
            network, 7, source="unit", parent_version=3, tag="t"
        )
        path = snapshot.save(tmp_path / "model-v7.npz")
        loaded = ModelSnapshot.load(path)
        assert loaded.version == 7
        assert loaded.source == "unit"
        assert loaded.parent_version == 3
        assert loaded.tag == "t"
        assert loaded.created_at == pytest.approx(snapshot.created_at)
        assert loaded.featurizer_signature == canonical_signature(
            bench.featurizer.signature()
        )
        query = queries[0]
        plans = candidate_plans[query.name]
        restored = loaded.restore(bench.featurizer)
        np.testing.assert_allclose(
            restored.predict(query, plans), network.predict(query, plans)
        )
        # And the stateless route works off the loaded state too.
        examples = [bench.featurizer.featurize(query, plan) for plan in plans]
        np.testing.assert_allclose(
            ValueNetwork.from_state_dict(loaded.state).predict_examples(examples),
            network.predict(query, plans),
        )

    def test_loaded_weights_are_frozen(self, bench, tmp_path):
        network = small_network(bench.featurizer)
        path = ModelSnapshot.capture(network, 1).save(tmp_path / "m.npz")
        loaded = ModelSnapshot.load(path)
        weights = loaded.state["weights"]
        name = next(iter(weights))
        with pytest.raises(ValueError):
            weights[name][0] = 1.0

    def test_registry_persists_on_promote(self, bench, tmp_path):
        registry = ModelRegistry(persist_dir=tmp_path / "models")
        snapshot = registry.register(small_network(bench.featurizer), source="a")
        assert not registry.snapshot_path(snapshot.version).exists()
        registry.promote(snapshot.version)
        path = registry.snapshot_path(snapshot.version)
        assert path.exists()
        assert ModelSnapshot.load(path).version == snapshot.version


# ---------------------------------------------------------------------- #
# The backend matrix: one protocol, every backend name
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", BACKENDS)
class TestBackendMatrix:
    def test_submit_matches_direct_predict(
        self, backend_name, bench, queries, candidate_plans
    ):
        network = small_network(bench.featurizer, seed=0)
        query = queries[0]
        plans = candidate_plans[query.name]
        backend = make_backend(backend_name, bench)
        try:
            np.testing.assert_allclose(
                backend.submit(query, plans, version=network),
                network.predict(query, plans),
            )
            stats = backend.stats()
            assert stats.requests == 1
            assert stats.examples == len(plans)
        finally:
            backend.close()

    def test_a_plan_view_scores_like_the_list_of_its_plans(
        self, backend_name, bench, queries
    ):
        """Beam search submits a view of its plan table, which a backend may
        read as triples or as the plan nodes it builds on access."""
        network = small_network(bench.featurizer, seed=0)
        query = queries[0]
        table = PlanTable(query)
        scans = [table.add_scan(scan(query, alias)) for alias in query.aliases]
        joins = [
            joined
            for left, right in itertools.permutations(scans, 2)
            for joined in table.add_joins(
                left, right, [(left, right, operator) for operator in all_join_operators()]
            )
        ]
        view = table.view(scans + joins)
        # Small chunks: the in-process backend slices the view.
        backend = make_backend(backend_name, bench, max_batch_size=5)
        try:
            by_view = backend.submit(query, view, version=network)
            np.testing.assert_allclose(
                by_view, backend.submit(query, list(view), version=network)
            )
            np.testing.assert_allclose(by_view, network.predict(query, list(view)))
            stats = backend.stats()
            assert stats.requests == 2
            assert stats.examples == 2 * len(view)
        finally:
            backend.close()

    def test_version_pins_are_respected(
        self, backend_name, bench, queries, candidate_plans
    ):
        net_a = small_network(bench.featurizer, seed=0)
        net_b = small_network(bench.featurizer, seed=9)
        query = queries[0]
        plans = candidate_plans[query.name]
        backend = make_backend(backend_name, bench)
        try:
            scored_a = backend.submit(query, plans, version=net_a)
            scored_b = backend.submit(query, plans, version=net_b)
            np.testing.assert_allclose(scored_a, net_a.predict(query, plans))
            np.testing.assert_allclose(scored_b, net_b.predict(query, plans))
            assert not np.allclose(scored_a, scored_b)
        finally:
            backend.close()

    def test_search_through_backend_is_invisible(
        self, backend_name, bench, queries
    ):
        """The refactor must not change what beam search finds."""
        network = small_network(bench.featurizer, seed=2)
        planner = small_planner()
        backend = make_backend(backend_name, bench)
        try:
            for query in queries[:3]:
                direct = planner.search(query, network)
                routed = planner.search(
                    query,
                    network,
                    score_fn=lambda q, p: backend.submit(q, p, version=network),
                )
                assert [p.fingerprint() for p in routed.plans] == [
                    p.fingerprint() for p in direct.plans
                ]
                np.testing.assert_allclose(
                    routed.predicted_latencies, direct.predicted_latencies
                )
        finally:
            backend.close()

    def test_empty_plans_scored_as_empty(self, backend_name, bench, queries):
        backend = make_backend(backend_name, bench)
        try:
            result = backend.submit(queries[0], [])
            assert result.shape == (0,)
        finally:
            backend.close()

    def test_closed_backend_rejects_submits(
        self, backend_name, bench, queries, candidate_plans
    ):
        network = small_network(bench.featurizer)
        backend = make_backend(backend_name, bench)
        backend.close()
        with pytest.raises(RuntimeError):
            backend.submit(
                queries[0], candidate_plans[queries[0].name], version=network
            )

    def test_max_batch_records_true_chunk_sizes(
        self, backend_name, bench, queries, candidate_plans
    ):
        """Regression: ``max_batch_examples`` is the largest chunk actually
        run, and chunking accounts for every example exactly once.  Only
        ``max_batch_size`` splits a request: one that fits is one pass."""
        network = small_network(bench.featurizer)
        query = queries[0]
        few = list(candidate_plans[query.name])
        assert len(few) >= 3
        rng = np.random.default_rng(0)
        many = [random_plan(query, rng) for _ in range(40)]
        for cap, plans in ((2, few), (512, many)):
            backend = make_backend(backend_name, bench, max_batch_size=cap)
            try:
                predictions = backend.submit(query, plans, version=network)
                np.testing.assert_allclose(
                    predictions, network.predict(query, plans)
                )
                stats = backend.stats()
                assert stats.examples == len(plans)
                assert stats.forward_batches == -(-len(plans) // cap)
                assert stats.max_batch_examples == min(cap, len(plans))
            finally:
                backend.close()

    def test_service_parity_with_serial_search(self, backend_name, bench, queries):
        network = small_network(bench.featurizer, seed=5)
        planner = small_planner()
        serial = [planner.search(query, network) for query in queries]
        with PlannerService(
            network,
            planner=small_planner(),
            max_workers=2,
            scoring_backend=backend_name,
        ) as service:
            responses = service.plan_many(queries)
            for direct, response in zip(serial, responses):
                assert not response.cache_hit
                assert response.best_plan.fingerprint() == (
                    direct.best_plan.fingerprint()
                )
            # Repeated traffic under the same backend stays correct.
            warm = service.plan_many(queries)
            assert all(response.cache_hit for response in warm)


# ---------------------------------------------------------------------- #
# The default service: one in-process scoring path, on the planning thread
# ---------------------------------------------------------------------- #
class TestDefaultServiceScoresOnThePlanningThread:
    @staticmethod
    def _record_scoring_threads(network) -> list[int]:
        """Wrap ``network.predict`` to log the thread of every call."""
        idents: list[int] = []
        predict = network.predict

        def recording(query, plans):
            idents.append(threading.get_ident())
            return predict(query, plans)

        network.predict = recording
        return idents

    def test_scores_on_the_calling_thread(self, bench, queries):
        network = small_network(bench.featurizer, seed=5)
        idents = self._record_scoring_threads(network)
        with PlannerService(network, planner=small_planner()) as service:
            for query in queries[:2]:
                assert not service.plan(query).cache_hit
            assert idents and set(idents) == {threading.get_ident()}
            assert not [
                thread.name for thread in threading.enumerate()
                if thread.name == "scoring-backend"
            ]

    def test_four_planning_threads_match_serial_search(self, bench, queries):
        """A slice of the plan-equivalence oracle: concurrent callers of one
        default service get serial search's ordered plans and predictions."""
        planner = small_planner()
        reference = small_network(bench.featurizer, seed=5)
        serial = {query.name: planner.search(query, reference) for query in queries}
        network = small_network(bench.featurizer, seed=5)
        idents = self._record_scoring_threads(network)
        responses: dict[str, object] = {}
        errors: list[BaseException] = []

        with PlannerService(network, planner=small_planner()) as service:

            def plan(batch) -> None:
                try:
                    for query in batch:
                        responses[query.name] = service.plan(query)
                except BaseException as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            planners = [
                threading.Thread(target=plan, args=(queries[index::4],))
                for index in range(4)
            ]
            for thread in planners:
                thread.start()
            for thread in planners:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in planners)
        assert not errors
        assert set(idents) <= {thread.ident for thread in planners}
        assert len(responses) == len(queries)
        for query in queries:
            direct, response = serial[query.name], responses[query.name]
            assert not response.cache_hit
            assert [plan.fingerprint() for plan in response.plans] == [
                plan.fingerprint() for plan in direct.plans
            ]
            np.testing.assert_allclose(
                response.predicted_latencies, direct.predicted_latencies,
                rtol=1e-12, atol=0.0,
            )


# ---------------------------------------------------------------------- #
# Stats snapshots cannot drift (dataclasses.replace copies every field)
# ---------------------------------------------------------------------- #
class TestStatsSnapshotDrift:
    def test_every_field_survives_the_snapshot(self, bench):
        backend = InProcessBackend(lambda: None)
        try:
            internal = backend._core._stats
            for index, field in enumerate(dataclasses.fields(ScoringBridgeStats)):
                setattr(internal, field.name, index + 1)
            snapshot = backend.stats()
            for index, field in enumerate(dataclasses.fields(ScoringBridgeStats)):
                assert getattr(snapshot, field.name) == index + 1, (
                    f"stats() dropped field {field.name!r}; snapshots must use "
                    f"dataclasses.replace, not hand-copied fields"
                )
            # The snapshot is a copy: mutating it never touches the counters.
            snapshot.requests = 10_000
            assert backend._core._stats.requests != 10_000
        finally:
            backend.close()


# ---------------------------------------------------------------------- #
# Process-backend failure modes
# ---------------------------------------------------------------------- #
@pytest.mark.skipif("process" not in BACKENDS, reason="process backend filtered out")
class TestProcessBackendFailures:
    def test_crash_mid_batch_surfaces_typed_error_not_hang(
        self, bench, queries, candidate_plans
    ):
        network = small_network(bench.featurizer)
        query = queries[0]
        plans = candidate_plans[query.name]
        backend = ProcessPoolBackend(
            bench.featurizer, num_workers=2, submit_timeout_seconds=60.0
        )
        try:
            # Warm path first: both workers serve.
            backend.submit(query, plans, version=network)
            with pytest.raises(ScoringBackendError, match="died mid-batch"):
                crash_a_scorer(backend, query, plans, network)
            assert backend.stats().worker_crashes == 1
            # The surviving worker keeps serving subsequent requests.
            np.testing.assert_allclose(
                backend.submit(query, plans, version=network),
                network.predict(query, plans),
            )
            assert backend.alive_workers() == 1
        finally:
            backend.close()

    def test_scorer_dying_right_after_its_handshake_leaves_the_survivor_serving(
        self, bench, queries, candidate_plans
    ):
        """No warm path: the crash task waits while worker 0 boots, so the
        worker exits straight after its readiness handshake.  When the pool
        shared one result queue, that exit could land while the queue's
        feeder thread held the write lock, and the *survivor's* reply then
        never arrived (about one round in nine on two CPUs)."""
        network = small_network(bench.featurizer)
        query = queries[0]
        plans = candidate_plans[query.name]
        for _ in range(2):
            backend = ProcessPoolBackend(
                bench.featurizer, num_workers=2, submit_timeout_seconds=30.0
            )
            try:
                with pytest.raises(ScoringBackendError, match="died mid-batch"):
                    crash_a_scorer(backend, query, plans, network)
                np.testing.assert_allclose(
                    backend.submit(query, plans, version=network),
                    network.predict(query, plans),
                )
                # The dead worker's pipe read as end-of-file: no longer polled.
                assert backend._result_readers[0] is None
            finally:
                backend.close()

    def test_all_workers_dead_rejects_immediately(
        self, bench, queries, candidate_plans
    ):
        network = small_network(bench.featurizer)
        query = queries[0]
        plans = candidate_plans[query.name]
        backend = ProcessPoolBackend(
            bench.featurizer, num_workers=2, submit_timeout_seconds=60.0
        )
        try:
            for _ in range(2):
                with pytest.raises(ScoringBackendError):
                    crash_a_scorer(backend, query, plans, network)
            assert backend.alive_workers() == 0
            with pytest.raises(ScoringBackendError, match="all scorer processes"):
                backend.submit(query, plans, version=network)
        finally:
            backend.close()

    def test_unresolvable_version_is_typed(self, bench, queries, candidate_plans):
        """An unpinned request with no provider network has no version to
        score with: a typed error before anything reaches a scorer."""
        backend = ProcessPoolBackend(
            bench.featurizer, num_workers=1, submit_timeout_seconds=60.0,
            network_provider=lambda: None,
        )
        try:
            with pytest.raises(ScoringBackendError, match="no model to score with"):
                backend.submit(queries[0], candidate_plans[queries[0].name])
            assert backend.alive_workers() == 1
            assert backend.stats().versions_published == 0
        finally:
            backend.close()

    def test_close_removes_the_published_snapshots(
        self, bench, queries, candidate_plans
    ):
        network = small_network(bench.featurizer)
        backend = ProcessPoolBackend(num_workers=1, submit_timeout_seconds=60.0)
        spool = backend._spool_dir
        try:
            backend.submit(queries[0], candidate_plans[queries[0].name], version=network)
            assert backend.stats().versions_published == 1
            assert any(name.endswith(".npz") for name in os.listdir(spool))
        finally:
            backend.close()
        assert not os.path.exists(spool)


@pytest.mark.skipif("process" not in BACKENDS, reason="process backend filtered out")
class TestProcessBackendRespawn:
    """With a ``max_respawns`` budget, crashed scorers are replaced."""

    @staticmethod
    def _wait_alive(backend, count: int, timeout: float = 15.0) -> int:
        deadline = time.monotonic() + timeout
        while backend.alive_workers() != count and time.monotonic() < deadline:
            time.sleep(0.05)
        return backend.alive_workers()

    def test_crashed_worker_respawns_and_serves(
        self, bench, queries, candidate_plans
    ):
        network = small_network(bench.featurizer)
        query = queries[0]
        plans = candidate_plans[query.name]
        backend = ProcessPoolBackend(
            bench.featurizer, num_workers=1, submit_timeout_seconds=60.0,
            max_respawns=2,
        )
        try:
            # The crash still fails its own batch with the typed error...
            with pytest.raises(ScoringBackendError, match="died mid-batch"):
                crash_a_scorer(backend, query, plans, network)
            # ...but the slot is refilled instead of the pool shrinking to 0.
            assert self._wait_alive(backend, 1) == 1
            stats = backend.stats()
            assert stats.worker_crashes == 1
            assert stats.workers_respawned == 1
            # The respawned worker restores the snapshot from the spool and
            # serves correct predictions.
            np.testing.assert_allclose(
                backend.submit(query, plans, version=network),
                network.predict(query, plans),
            )
        finally:
            backend.close()

    def test_respawn_budget_is_bounded(self, bench, queries, candidate_plans):
        network = small_network(bench.featurizer)
        query = queries[0]
        plans = candidate_plans[query.name]
        backend = ProcessPoolBackend(
            bench.featurizer, num_workers=1, submit_timeout_seconds=60.0,
            max_respawns=1,
        )
        try:
            with pytest.raises(ScoringBackendError, match="died mid-batch"):
                crash_a_scorer(backend, query, plans, network)
            assert self._wait_alive(backend, 1) == 1
            # Second crash: the pool-wide budget is spent, no replacement.
            with pytest.raises(ScoringBackendError):
                crash_a_scorer(backend, query, plans, network)
            assert self._wait_alive(backend, 0) == 0
            stats = backend.stats()
            assert stats.worker_crashes == 2
            assert stats.workers_respawned == 1
            with pytest.raises(ScoringBackendError, match="all scorer processes"):
                backend.submit(query, plans, version=network)
        finally:
            backend.close()

    def test_default_keeps_historical_no_respawn_behaviour(self):
        backend = ProcessPoolBackend(num_workers=1)
        try:
            assert backend.max_respawns == 0
        finally:
            backend.close()


# ---------------------------------------------------------------------- #
# The pool's gauges, and what a scorer process starts with
# ---------------------------------------------------------------------- #
@pytest.mark.skipif("process" not in BACKENDS, reason="process backend filtered out")
class TestProcessPoolGauges:
    def test_stats_surface_per_worker_gauges(
        self, bench, queries, candidate_plans
    ):
        network = small_network(bench.featurizer)
        query = queries[0]
        backend = ProcessPoolBackend(
            bench.featurizer, num_workers=2, submit_timeout_seconds=60.0
        )
        try:
            backend.submit(
                query, candidate_plans[query.name], version=network
            )
            stats = backend.stats()
            assert stats.workers_current == 2
            assert stats.worker_queue_depths == (0, 0)
            assert stats.worker_inflight == (0, 0)
        finally:
            backend.close()

    def test_service_metrics_expose_pool_gauges(self, bench, queries):
        """The pool's gauges ride ``GET /v1/metrics``' JSON body."""
        network = small_network(bench.featurizer, seed=5)
        with PlannerService(
            network,
            planner=small_planner(),
            max_workers=2,
            scoring_backend="process",
        ) as service:
            service.plan_many(queries[:2])
            scoring = service.metrics().to_json_dict()["scoring"]
            assert scoring["workers_current"] == 2
            assert len(scoring["worker_queue_depths"]) == 2
            assert len(scoring["worker_inflight"]) == 2


@pytest.mark.skipif("process" not in BACKENDS, reason="process backend filtered out")
@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/environ"
)
class TestScorerBlasEnvironment:
    """A pool's parallelism is its process count: one BLAS thread a scorer."""

    VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize("parent_value, scorer_value", [(None, "1"), ("3", "3")])
    def test_scorer_starts_single_threaded_unless_the_parent_says_otherwise(
        self, monkeypatch, parent_value, scorer_value
    ):
        for name in self.VARIABLES:
            if parent_value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, parent_value)
        backend = ProcessPoolBackend(num_workers=1)
        try:
            assert backend.wait_ready(timeout=60.0)
            with open(f"/proc/{backend._processes[0].pid}/environ", "rb") as handle:
                entries = handle.read().decode("utf-8", "replace").split("\0")
            scorer = dict(entry.split("=", 1) for entry in entries if "=" in entry)
            for name in self.VARIABLES:
                assert scorer.get(name) == scorer_value
                # This process's own environment is as it was.
                assert os.environ.get(name) == parent_value
        finally:
            backend.close()


# ---------------------------------------------------------------------- #
# Service fallback after repeated backend failures
# ---------------------------------------------------------------------- #
class _AlwaysFailingBackend:
    """A protocol-complete backend whose every submit fails."""

    def __init__(self):
        self.submits = 0
        self.closed = False
        self._lock = threading.Lock()

    def submit(self, query, plans, version=None):
        with self._lock:
            self.submits += 1
        raise ScoringBackendError("injected: scorer pool unavailable")

    def stats(self):
        return ScoringBridgeStats()

    def close(self):
        self.closed = True


class TestServiceFallback:
    def test_falls_back_to_in_process_after_max_failures(self, bench, queries):
        network = small_network(bench.featurizer)
        failing = _AlwaysFailingBackend()
        service = PlannerService(
            network,
            planner=small_planner(),
            scoring_backend=failing,
            max_backend_failures=2,
        )
        with service:
            # Failures surface to the waiting search as the typed error...
            for _ in range(2):
                with pytest.raises(ScoringBackendError):
                    service.plan(queries[0])
            # ...and past the cap the service serves via in-process scoring.
            response = service.plan(queries[0])
            assert response.plans
            reference = small_planner().search(queries[0], network)
            assert response.best_plan.fingerprint() == (
                reference.best_plan.fingerprint()
            )
            metrics = service.metrics()
            assert metrics.scoring_backend_failures == 2
            assert metrics.scoring_fallbacks == 1
        assert failing.closed  # the abandoned backend is still closed with us

    def test_fallback_disabled_keeps_failing(self, bench, queries):
        network = small_network(bench.featurizer)
        service = PlannerService(
            network,
            planner=small_planner(),
            scoring_backend=_AlwaysFailingBackend(),
            max_backend_failures=None,
        )
        with service:
            for _ in range(4):
                with pytest.raises(ScoringBackendError):
                    service.plan(queries[0])
            assert service.metrics().scoring_fallbacks == 0

    def test_successes_reset_the_consecutive_counter(self, bench, queries):
        """Intermittent failures below the cap must never trip the fallback."""
        network = small_network(bench.featurizer)

        class Flaky(InProcessBackend):
            def __init__(self):
                super().__init__(lambda: network)
                self.calls = 0

            def submit(self, query, plans, version=None):
                self.calls += 1
                # Two isolated failures with a success in between: the
                # consecutive counter resets and never reaches the cap of 2.
                if self.calls in (1, 3):
                    raise ScoringBackendError("flaky")
                return super().submit(query, plans, version)

        service = PlannerService(
            network,
            planner=small_planner(),
            scoring_backend=Flaky(),
            max_backend_failures=2,
        )
        with service:
            served = 0
            for _ in range(6):
                try:
                    response = service.plan(
                        PlanRequest(query=queries[0], k=2)
                    )
                except ScoringBackendError:
                    continue
                served += 1
                assert response.plans
            assert served > 0
            assert service.metrics().scoring_fallbacks == 0
