"""The serving pointer: the version the registry says serves is what plans.

:class:`~repro.lifecycle.manager.ModelLifecycle` is the one owner of that
rule.  A state machine drives every caller that moves the serving model —
the gateway's promote and rollback routes, their ops-channel replays, the
probe gate's ``evaluate_and_apply`` (pass and reject), the traffic
shadower's verdicts (fresh and stale) — plus injected faults: a snapshot
restore that raises, a network swap that raises and a registry pointer move
that raises.  After every step:

- every weight of ``service.serving_network()`` equals the registry's
  serving snapshot's (``np.array_equal``);
- the registry's serving chain is the one the applied moves predict;
- the live monitor is armed exactly when the last applied move was a
  promotion with a baseline;
- each applied move emitted one event naming the version it displaced, and
  a refused move changed nothing and emitted nothing;
- a gate decision in the registry's audit trail reads ``promoted`` only if
  its version entered the serving chain.

A threaded test races ops promotes against gate promotions and checks the
pointer and the service agree after each race.
"""

from __future__ import annotations

import sys
import threading
import time
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.lifecycle import (
    LifecycleError,
    ModelLifecycle,
    ModelRegistry,
    ModelSnapshot,
    PromotionDecision,
)
from repro.model.value_network import (
    StateDictMismatchError,
    ValueNetwork,
    ValueNetworkConfig,
)
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer, TrafficShadower
from repro.service.service import PlannerService
from repro.telemetry.events import get_event_bus
from repro.workloads.benchmark import make_job_benchmark

#: Event kinds a move of the serving model emits.
MOVES = frozenset({"promotion", "rollback", "resume"})
#: Registered versions (one per network) and one the registry never issued.
VERSIONS = (1, 2, 3, 4)
UNKNOWN = 99


@lru_cache(maxsize=1)
def networks() -> tuple:
    """Four networks with different weights over one small benchmark."""
    bench = make_job_benchmark(
        fact_rows=200, num_queries=6, num_templates=3, test_size=2,
        seed=2, size_range=(3, 4),
    )
    return tuple(
        ValueNetwork(
            bench.featurizer,
            ValueNetworkConfig(
                query_hidden=8, query_embedding=4, tree_channels=(8, 4),
                head_hidden=4, seed=seed,
            ),
        )
        for seed in range(len(VERSIONS))
    )


class StubGate:
    """A promotion gate whose verdict the test sets."""

    probe_queries = ()

    def __init__(self):
        self.passes = True

    def evaluate(self, candidate, serving, *, candidate_version, serving_version):
        return PromotionDecision(
            candidate_version, serving_version, self.passes, "stub verdict"
        )


def build_stack() -> SimpleNamespace:
    """A gateway over a service serving v1 of a registry holding v1..v4,
    with a gated lifecycle and its shadower (which never sees traffic)."""
    service = PlannerService(
        networks()[0],
        planner=BeamSearchPlanner(beam_size=2, top_k=1, enumerate_scan_operators=False),
    )
    registry = ModelRegistry()
    for network in networks():
        registry.register(network, source="test")
    registry.promote(VERSIONS[0])
    gate = StubGate()
    lifecycle = ModelLifecycle(service, registry, gate)
    shadower = TrafficShadower(
        lifecycle, lambda query, plan: 1.0, min_samples=1_000, window=1_000
    )
    gateway = PlanningServer(
        service, lifecycle=lifecycle, shadower=shadower, profile=False
    )
    return SimpleNamespace(
        service=service, registry=registry, gate=gate, lifecycle=lifecycle,
        shadower=shadower, gateway=gateway,
    )


def close_stack(stack: SimpleNamespace) -> None:
    stack.shadower.close()
    stack.gateway.close()
    stack.service.close()


def assert_service_serves_the_pointer(stack: SimpleNamespace) -> None:
    served = stack.service.serving_network().state_dict()["weights"]
    expected = stack.registry.serving().state["weights"]
    assert served.keys() == expected.keys()
    for name, values in served.items():
        assert np.array_equal(values, expected[name]), (
            f"{name}: the service does not serve v{stack.registry.serving_version}"
        )


class ServingPointerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.stack = build_stack()
        self.bus = get_event_bus()
        self.cursor = self.bus.cursor
        #: The serving chain the applied moves predict.
        self.history = [VERSIONS[0]]
        #: Whether the last applied move was a promotion with a baseline.
        self.armed = False
        #: The versions the gate's passing verdicts put into the chain.
        self.gate_promoted: list[int] = []
        self.published: list[dict] = []
        self.stack.gateway.ops_channel = SimpleNamespace(publish=self.published.append)

    def teardown(self):
        close_stack(self.stack)

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def serving(self) -> int:
        return self.history[-1]

    def candidate(self, pick: int) -> int:
        others = [version for version in VERSIONS if version != self.serving]
        return others[pick % len(others)]

    def move_events(self) -> list:
        events, self.cursor = self.bus.since(self.cursor)
        return [event for event in events if event.kind in MOVES]

    def observable(self) -> tuple:
        stack = self.stack
        return (
            stack.registry.serving_history(),
            stack.service.serving_network(),
            stack.shadower.armed,
        )

    def applied(self, kind: str, version: int, displaced: int) -> None:
        """Exactly one ``kind`` event for ``version``, naming ``displaced``."""
        events = self.move_events()
        assert [(event.kind, event.fields["version"]) for event in events] == [
            (kind, version)
        ]
        named = "previous_version" if kind == "promotion" else "rolled_back_from"
        assert events[0].fields[named] == displaced

    def refused(self, before: tuple) -> None:
        assert self.move_events() == []
        assert self.observable() == before

    def promoted(self, version: int) -> None:
        displaced = self.serving
        self.history.append(version)
        self.armed = True
        self.applied("promotion", version, displaced)

    def rolled_back(self) -> None:
        displaced = self.history.pop()
        self.armed = False
        self.applied("rollback", self.serving, displaced)

    # ------------------------------------------------------------------ #
    # Callers
    # ------------------------------------------------------------------ #
    @rule(version=st.sampled_from(VERSIONS + (UNKNOWN,)), replay=st.booleans())
    def ops_promote(self, version, replay):
        """``POST /v1/models/promote``, or its replay from a sibling."""
        before, published = self.observable(), len(self.published)
        if replay:
            self.stack.gateway.apply_ops_message({"op": "promote", "version": version})
        else:
            status, body = self.stack.gateway.handle_promote({"version": version})
            assert status == (404 if version == UNKNOWN else 200), body
        if version == UNKNOWN or version == self.serving:
            self.refused(before)
        else:
            self.promoted(version)
        broadcast = not replay and version != UNKNOWN
        assert len(self.published) - published == int(broadcast)

    @rule(replay=st.booleans())
    def ops_rollback(self, replay):
        """``POST /v1/models/rollback``, or its replay from a sibling."""
        before, published = self.observable(), len(self.published)
        possible = len(self.history) > 1
        if replay:
            self.stack.gateway.apply_ops_message({"op": "rollback"})
        else:
            status, body = self.stack.gateway.handle_rollback()
            assert status == (200 if possible else 409), body
            if possible:
                assert body == {
                    "serving_version": self.history[-2],
                    "rolled_back_from": self.serving,
                }
        if possible:
            self.rolled_back()
        else:
            self.refused(before)
        assert len(self.published) - published == int(possible and not replay)

    @rule(passes=st.booleans(), pick=st.integers(0, 9))
    def gate(self, passes, pick):
        """The probe gate's verdict on a registered candidate."""
        version = self.candidate(pick)
        before = self.observable()
        self.stack.gate.passes = passes
        decision = self.stack.lifecycle.evaluate_and_apply(
            self.stack.registry.get(version)
        )
        assert decision.promoted is passes
        if passes:
            self.gate_promoted.append(version)
            self.promoted(version)
        else:
            self.refused(before)

    @rule(fresh=st.booleans())
    def shadow_verdict(self, fresh):
        """A live-traffic breach for the watched pair, or for a retired one."""
        shadower = self.stack.shadower
        with shadower._lock:
            armed = shadower._armed
            generation = shadower._generation - (0 if fresh else 1)
            verdict = PromotionDecision(
                shadower._candidate_version, shadower._baseline_version,
                False, "injected breach",
            )
        before, rollbacks = self.observable(), shadower.stats().rollbacks
        shadower._trigger_rollback(verdict, generation)
        if fresh and armed:
            assert (self.serving, self.history[-2]) == (
                verdict.candidate_version, verdict.serving_version
            )
            self.rolled_back()
            assert shadower.stats().rollbacks == rollbacks + 1
        else:
            self.refused(before)
            assert shadower.stats().rollbacks == rollbacks

    # ------------------------------------------------------------------ #
    # Faults: each refused move must change nothing
    # ------------------------------------------------------------------ #
    def attempt(self, route: str, pick: int, status: int, error: type) -> None:
        gateway = self.stack.gateway
        if route == "promote":
            reply = gateway.handle_promote({"version": self.candidate(pick)})
            assert reply[0] == status, reply
        elif route == "rollback":
            reply = gateway.handle_rollback()
            assert reply[0] == (status if len(self.history) > 1 else 409), reply
        else:
            self.stack.gate.passes = True
            with pytest.raises(error):
                self.stack.lifecycle.evaluate_and_apply(
                    self.stack.registry.get(self.candidate(pick))
                )

    @rule(route=st.sampled_from(["promote", "rollback", "gate"]), pick=st.integers(0, 9))
    def restore_raises(self, route, pick):
        before = self.observable()
        with mock.patch.object(
            ModelSnapshot, "restore", side_effect=StateDictMismatchError("injected")
        ):
            self.attempt(route, pick, 409, StateDictMismatchError)
        self.refused(before)

    @rule(
        route=st.sampled_from(["promote", "rollback", "gate"]),
        half=st.sampled_from(["swap", "pointer"]),
        pick=st.integers(0, 9),
    )
    def move_half_raises(self, route, half, pick):
        """The network swap, or the registry pointer move after it, fails."""
        if half == "swap":
            target, name = self.stack.service, "swap_network"
            error, status = RuntimeError, 503
        else:
            target = self.stack.registry
            name = "rollback" if route == "rollback" else "promote"
            error, status = LifecycleError, 409
        real = getattr(target, name)
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise error(f"injected {half} failure")
            return real(*args, **kwargs)

        before = self.observable()
        with mock.patch.object(target, name, fails_once):
            self.attempt(route, pick, status, error)
        self.refused(before)
        if route == "gate":
            last = self.stack.registry.decisions()[-1]
            assert not last.promoted and f"injected {half} failure" in last.reason

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    @invariant()
    def service_serves_the_pointer(self):
        assert_service_serves_the_pointer(self.stack)

    @invariant()
    def pointer_follows_the_applied_moves(self):
        assert self.stack.registry.serving_history() == self.history

    @invariant()
    def monitor_armed_exactly_after_a_promotion(self):
        assert self.stack.shadower.armed is self.armed

    @invariant()
    def every_event_was_accounted_for(self):
        assert self.move_events() == []

    @invariant()
    def a_decision_reads_promoted_only_if_its_version_served(self):
        decisions = self.stack.registry.decisions()
        assert [d.candidate_version for d in decisions if d.promoted] == self.gate_promoted


ServingPointerMachine.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServingPointer = ServingPointerMachine.TestCase


def test_ops_promotes_racing_gate_promotions_keep_pointer_and_service_agreed():
    """Each race starts two ops promotes and a gate promotion of three
    different versions together, on more threads than the host has cores,
    with a short switch interval; a swap that lingers before returning
    widens the gap between swapping the network and moving the pointer."""
    stack = build_stack()
    real_swap = stack.service.swap_network

    def lingering_swap(network):
        key = real_swap(network)
        time.sleep(0.005)
        return key

    stack.service.swap_network = lingering_swap
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for race in range(12):
            serving = stack.registry.serving_version
            first, second, gated = [v for v in VERSIONS if v != serving]
            start = threading.Barrier(3)
            replies: list = []

            def ops(version):
                start.wait()
                replies.append(stack.gateway.handle_promote({"version": version}))

            def gate():
                start.wait()
                stack.lifecycle.evaluate_and_apply(stack.registry.get(gated))

            threads = [
                threading.Thread(target=ops, args=(first,)),
                threading.Thread(target=ops, args=(second,)),
                threading.Thread(target=gate),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            assert [status for status, _ in replies] == [200, 200], replies
            assert stack.registry.serving_version in (first, second, gated)
            assert_service_serves_the_pointer(stack)
    finally:
        sys.setswitchinterval(interval)
        close_stack(stack)
