"""The lifecycle manager: train → shadow → promote → warm, end to end.

:class:`ModelLifecycle` wires the four lifecycle pieces to a running
:class:`~repro.service.service.PlannerService`:

1. :meth:`baseline` registers and promotes the initially serving network;
2. :meth:`advance` fine-tunes a clone of the serving network on fresh
   experience via the :class:`~repro.lifecycle.trainer.BackgroundTrainer`,
   on the calling thread;
3. the candidate snapshot is shadow-evaluated against the serving version on
   the probe workload; the :class:`~repro.lifecycle.shadow.PromotionDecision`
   is recorded in the registry's audit trail either way;
4. approved candidates hot-swap into the service atomically (in-flight
   requests finish on version N, new requests plan with N+1) and the cache
   warmer immediately replans the known workload so steady-state traffic
   stays on the warm path; rejected candidates leave version N serving and
   bump the service's ``promotions_rejected`` counter.

:meth:`rollback` reverts to the previously serving version — same swap, same
warming — for when post-promotion monitoring disagrees with the gate.

Post-promotion monitoring itself plugs in through
:meth:`ModelLifecycle.attach_live_monitor`: a
:class:`~repro.server.shadow_traffic.TrafficShadower` (or anything with the
same ``watch``/``disarm`` surface) is armed after every promotion with the
(candidate, displaced-baseline) version pair, shadow-scores *live* traffic
against the pair, and calls :meth:`rollback` when the regression bound
breaks on what users actually run — not just on the probe workload.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.featurization.featurizer import FeaturizedExample, QueryPlanFeaturizer
from repro.lifecycle.registry import ModelRegistry
from repro.lifecycle.shadow import PromotionDecision, ShadowEvaluator
from repro.lifecycle.snapshot import LifecycleError, ModelSnapshot
from repro.lifecycle.trainer import BackgroundTrainer
from repro.model.value_network import ValueNetwork
from repro.service.service import PlannerService
from repro.sql.query import Query
from repro.telemetry.events import emit_event


class ModelLifecycle:
    """Serve version N while N+1 trains, gates, swaps in and warms up.

    Args:
        service: The serving front door (must run the beam backend).
        registry: Snapshot store and promotion audit trail.
        shadow: The promotion gate.
        trainer: Fine-tuner (one is built on ``registry`` when omitted).
        warm_queries: The known workload the cache warmer replans after every
            swap (defaults to the shadow evaluator's probe workload).
        featurizer: Featuriser used to restore snapshots (defaults to the
            serving network's).
    """

    def __init__(
        self,
        service: PlannerService,
        registry: ModelRegistry,
        shadow: ShadowEvaluator,
        trainer: BackgroundTrainer | None = None,
        warm_queries: Sequence[Query] | None = None,
        featurizer: QueryPlanFeaturizer | None = None,
    ):
        self.service = service
        self.registry = registry
        self.shadow = shadow
        self.trainer = trainer or BackgroundTrainer(registry)
        self.warm_queries = (
            list(warm_queries) if warm_queries is not None else list(shadow.probe_queries)
        )
        self._featurizer = featurizer
        # One round (train, gate, swap) at a time across callers.
        self._advance_lock = threading.Lock()
        #: Optional live-traffic monitor (``watch``/``disarm`` duck type),
        #: armed on every promotion with (candidate, displaced baseline).
        self.live_monitor = None

    def attach_live_monitor(self, monitor) -> None:
        """Arm ``monitor`` after every promotion (see module docstring).

        ``monitor`` needs ``watch(candidate_version, baseline_version)`` and
        ``disarm()`` — the :class:`~repro.server.shadow_traffic.TrafficShadower`
        surface.  Monitor failures never unwind an applied promotion.
        """
        self.live_monitor = monitor

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def baseline(
        self, network: ValueNetwork | None = None, source: str = "baseline"
    ) -> ModelSnapshot:
        """Register and promote the initially serving network.

        Args:
            network: The network to baseline (defaults to the service's
                current serving network — the common case after bootstrap).
            source: Provenance recorded on the snapshot.
        """
        network = network if network is not None else self._serving_network()
        snapshot = self.registry.register(network, source=source)
        self.registry.promote(snapshot.version)
        return snapshot

    # ------------------------------------------------------------------ #
    # Train → shadow → promote → warm
    # ------------------------------------------------------------------ #
    def advance(
        self,
        examples: Sequence[FeaturizedExample],
        labels: Sequence[float],
        *,
        max_epochs: int | None = None,
        refit_label_transform: bool = False,
        source: str = "fine-tune",
    ) -> PromotionDecision:
        """Run one full lifecycle round on the calling thread.

        Fine-tunes a clone of the serving network on ``(examples, labels)``,
        shadow-evaluates the candidate, and — only if the gate passes —
        hot-swaps it in and warms the cache.  The serving path keeps
        answering throughout on its own threads; concurrent callers run
        their rounds one at a time.
        """
        with self._advance_lock:
            report = self.trainer.train(
                self._serving_network(),
                examples,
                labels,
                parent_version=self.registry.serving_version,
                refit_label_transform=refit_label_transform,
                max_epochs=max_epochs,
                source=source,
            )
            return self.evaluate_and_apply(report.snapshot)

    def evaluate_and_apply(self, snapshot: ModelSnapshot) -> PromotionDecision:
        """Shadow-evaluate ``snapshot`` and promote/reject accordingly."""
        serving = self._serving_network()
        featurizer = self._featurizer_for(serving)
        candidate = snapshot.restore(featurizer)
        # Shadow-score the serving side on a private restored copy: the live
        # network's bare ``predict`` is not thread-safe, and service traffic
        # keeps scoring on it while this evaluation runs.  A lifecycle used
        # without an explicit baseline() gets one implicitly so the copy
        # always exists.
        serving_version = self.registry.serving_version
        if serving_version is None or serving_version not in self.registry:
            serving_version = self.baseline(serving, source="auto-baseline").version
        shadow_serving = self.registry.restore(serving_version, featurizer)
        decision = self.shadow.evaluate(
            candidate,
            shadow_serving,
            candidate_version=snapshot.version,
            serving_version=serving_version,
        )
        self.registry.record_decision(decision)
        if decision.promoted:
            # Swap before promoting: if the swap cannot happen (service
            # closed), the registry must not claim a version is serving that
            # never took traffic.
            self.service.swap_network(candidate)
            self.registry.promote(snapshot.version)
            emit_event(
                "promotion",
                source="lifecycle-gate",
                version=snapshot.version,
                previous_version=serving_version,
            )
            self.warm()
            self._arm_live_monitor(snapshot.version, serving_version)
        else:
            self.service.record_promotion_rejected()
        return decision

    def _arm_live_monitor(
        self, candidate_version: int, baseline_version: int | None
    ) -> None:
        """Point the live monitor at the promotion that just landed."""
        if self.live_monitor is None:
            return
        import warnings

        try:
            self.live_monitor.watch(candidate_version, baseline_version)
        except Exception as error:  # noqa: BLE001 - advisory path
            warnings.warn(
                f"live monitor failed to arm for v{candidate_version}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )

    def warm(self) -> int:
        """Replan the known workload so post-swap traffic hits the cache."""
        if not self.warm_queries:
            return 0
        return self.service.warm_cache(self.warm_queries)

    # ------------------------------------------------------------------ #
    # Rollback
    # ------------------------------------------------------------------ #
    def rollback(self, expected_serving: int | None = None) -> ModelSnapshot:
        """Revert serving to the previously promoted version (and rewarm).

        ``expected_serving`` is the registry's compare-and-rollback guard: a
        stale verdict (the live monitor condemning a version a concurrent
        promotion already displaced) aborts with a ``LifecycleError``
        instead of unseating the fresh promotion.

        A rollback retires whatever promotion the live monitor was watching,
        so the monitor is disarmed (it re-arms on the next promotion).
        """
        snapshot = self.registry.rollback(expected_serving=expected_serving)
        network = snapshot.restore(self._featurizer_for(self._serving_network()))
        self.service.swap_network(network)
        emit_event(
            "rollback",
            source="lifecycle",
            version=snapshot.version,
            rolled_back_from=expected_serving,
        )
        self.warm()
        if self.live_monitor is not None:
            import warnings

            try:
                self.live_monitor.disarm()
            except Exception as error:  # noqa: BLE001 - rollback already applied
                warnings.warn(
                    f"live monitor failed to disarm: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return snapshot

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _serving_network(self) -> ValueNetwork:
        network = self.service.serving_network()
        if network is None:
            raise LifecycleError(
                "the service has no serving value network (protocol backends "
                "cannot participate in the model lifecycle)"
            )
        return network

    def _featurizer_for(self, serving: ValueNetwork) -> QueryPlanFeaturizer:
        return self._featurizer if self._featurizer is not None else serving.featurizer
