"""The one regression rule both promotion gates apply.

:func:`repro.lifecycle.shadow.judge` holds the per-query bound and the
cost-weighted total bound.  The probe gate (:class:`ShadowEvaluator`) feeds it
a probe workload, the live gate (:class:`TrafficShadower`) its window of
sampled requests; this file pins the rule itself and checks that both gates
reach the same verdict on the same samples.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import repro.lifecycle.shadow as shadow_module
from repro.lifecycle.shadow import ProbeResult, ShadowEvaluator, judge
from repro.server.shadow_traffic import TrafficShadower

MAX_REGRESSION = 1.5
MAX_TOTAL_REGRESSION = 1.1


def probe(name: str, serving_cost: float, candidate_cost: float) -> ProbeResult:
    return ProbeResult(
        query_name=name,
        serving_cost=serving_cost,
        candidate_cost=candidate_cost,
        regression=candidate_cost / max(serving_cost, 1e-12),
    )


#: (case, probes, promoted, reason substring, worst regression, total regression)
CASES = [
    (
        "parity",
        [probe("a", 10.0, 10.0), probe("b", 20.0, 20.0)],
        True, "passed", 1.0, 1.0,
    ),
    (
        "one per-query breach",
        [probe("a", 10.0, 20.0), probe("b", 100.0, 90.0)],
        False, "per-query regression bound violated: a regressed 2.000x", 2.0, 1.0,
    ),
    (
        "total bound only",
        [probe("a", 10.0, 14.0), probe("b", 10.0, 14.0)],
        False, "workload regression bound violated", 1.4, 1.4,
    ),
    (
        "free serving plan, free candidate plan",
        [probe("a", 0.0, 0.0), probe("b", 10.0, 10.0)],
        True, "passed", 1.0, 1.0,
    ),
    (
        "free serving plan, costly candidate plan",
        [probe("a", 0.0, 1.0), probe("b", 10.0, 10.0)],
        False, "per-query regression bound violated: a", 1e12, 1.1,
    ),
    (
        "no samples",
        [],
        True, "passed", 0.0, 0.0,
    ),
]


@pytest.mark.parametrize(
    "probes, promoted, reason, worst, total",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_judge_applies_both_bounds(probes, promoted, reason, worst, total):
    decision = judge(
        probes, MAX_REGRESSION, MAX_TOTAL_REGRESSION,
        candidate_version=2, serving_version=1,
    )
    assert decision.promoted is promoted
    assert reason in decision.reason
    assert decision.max_regression == pytest.approx(worst)
    assert decision.total_regression == pytest.approx(total)
    assert decision.probes == probes
    assert (decision.candidate_version, decision.serving_version) == (2, 1)
    assert decision.regression_threshold == MAX_REGRESSION
    assert decision.total_threshold == MAX_TOTAL_REGRESSION


@pytest.fixture
def shadower():
    # The judgement never touches the lifecycle or the yardstick.
    shadower = TrafficShadower(
        SimpleNamespace(), None,
        max_regression=2.0, max_total_regression=1.25, min_samples=1,
    )
    yield shadower
    shadower.close()


def shadower_verdict(shadower: TrafficShadower, probes: list[ProbeResult]):
    with shadower._lock:
        shadower._window.clear()
        shadower._window.extend(probes)
        return shadower._judge_locked()


def test_degraded_bounds_tighten_the_same_rule(shadower):
    probes = [probe("a", 10.0, 17.0), probe("b", 100.0, 90.0)]
    assert shadower_verdict(shadower, probes).promoted

    shadower.set_degraded(True)
    verdict = shadower_verdict(shadower, probes)
    assert not verdict.promoted
    assert "per-query regression bound violated: a regressed 1.700x > 1.500x" in (
        verdict.reason
    )
    assert verdict.regression_threshold == pytest.approx(1.5)
    assert verdict.total_threshold == pytest.approx(1.125)
    stats = shadower.stats()
    assert stats.effective_max_regression == pytest.approx(1.5)
    assert stats.worst_regression == pytest.approx(1.7)
    assert stats.rolling_regression == pytest.approx(107.0 / 110.0)

    shadower.set_degraded(False)
    assert shadower_verdict(shadower, probes).promoted


@pytest.mark.parametrize(
    "probes", [case[1] for case in CASES if case[1]], ids=[c[0] for c in CASES if c[1]]
)
def test_evaluator_and_shadower_reach_the_same_verdict(
    shadower, monkeypatch, probes
):
    """At undegraded bounds the probe gate and the live gate agree."""
    shadower.max_regression = MAX_REGRESSION
    shadower.max_total_regression = MAX_TOTAL_REGRESSION
    # Probe i of the evaluator's workload replans to the table's probe i.
    monkeypatch.setattr(
        shadow_module,
        "shadow_probe",
        lambda index, candidate, serving, plan_cost, **versions: probes[index],
    )
    evaluator = ShadowEvaluator(
        list(range(len(probes))), plan_cost=None,
        max_regression=MAX_REGRESSION, max_total_regression=MAX_TOTAL_REGRESSION,
    )
    offline = evaluator.evaluate(object(), object())
    live = shadower_verdict(shadower, probes)
    assert offline.probes == live.probes == probes
    assert offline.promoted == live.promoted
    assert offline.reason == live.reason
    assert offline.max_regression == live.max_regression
    assert offline.total_regression == live.total_regression
