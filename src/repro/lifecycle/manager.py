"""The lifecycle manager: the one owner of what the service serves.

:class:`ModelLifecycle` is the only code that moves the serving model of a
running :class:`~repro.service.service.PlannerService`.  Three moves exist:

- :meth:`~ModelLifecycle.promote` makes a registered version serve (the
  probe gate's approvals, the gateway's ops route and its sharded replays);
- :meth:`~ModelLifecycle.rollback` reverts to the previously serving version
  (the ops route, and the live-traffic shadower's automatic rollback, which
  passes ``expected_serving`` so a stale verdict cannot unseat a fresh
  promotion);
- :meth:`~ModelLifecycle.resume` swaps the registry's persisted serving
  snapshot in at boot, so a restart serves the last promoted model.

Every move runs the same steps, in order, under one lock shared by all
moves: restore the snapshot with the lifecycle's featuriser; swap the
service's network and move the registry pointer together (if the pointer
cannot move, the swap is put back); retire the displaced network's cache
entries; warm :attr:`~ModelLifecycle.warm_queries` (not at boot, where no
traffic has been served); arm the live monitor after a promotion, disarm it
after any other move; emit exactly one event (a promotion's or rollback's
names the version displaced).  A move that raises changed nothing.

With a promotion gate (a :class:`~repro.lifecycle.shadow.ShadowEvaluator`),
:meth:`~ModelLifecycle.advance` also runs Balsa's serving round on the
calling thread: fine-tune a clone of the serving network with the
:class:`~repro.lifecycle.trainer.BackgroundTrainer`, shadow-evaluate the
candidate on the probe workload, promote only on a pass, and then record
the decision in the registry's audit trail (a pass whose move raised is
recorded as not promoted, with the error as its reason).  Without a gate
the lifecycle serves the ops routes, the shadower and boot-time restore
alone.

The live monitor is a :class:`~repro.server.shadow_traffic.TrafficShadower`
built over this lifecycle (or anything with its ``watch``/``disarm``
surface, set as :attr:`~ModelLifecycle.live_monitor`): armed with the
(candidate, displaced) pair, it shadow-scores live traffic and rolls back
through :meth:`~ModelLifecycle.rollback` when a bound breaks on what users
actually run.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import replace
from typing import Callable, Sequence

from repro.featurization.featurizer import FeaturizedExample, QueryPlanFeaturizer
from repro.lifecycle.registry import ModelRegistry
from repro.lifecycle.shadow import PromotionDecision, ShadowEvaluator
from repro.lifecycle.snapshot import LifecycleError, ModelSnapshot
from repro.lifecycle.trainer import BackgroundTrainer
from repro.model.value_network import ValueNetwork
from repro.service.service import PlannerService
from repro.telemetry.events import emit_event


class ModelLifecycle:
    """Moves the serving model: promote, rollback, boot-time resume.

    Args:
        service: The serving front door (must run the beam backend).
        registry: Snapshot store and promotion audit trail.
        shadow: The promotion gate :meth:`advance` and
            :meth:`evaluate_and_apply` judge candidates with (optional; both
            raise without one).
        trainer: Fine-tuner (one is built on ``registry`` when omitted).
        featurizer: Featuriser every snapshot is restored with (defaults to
            the serving network's).

    The cache warmer replans :attr:`warm_queries` after every promotion and
    rollback: the gate's probe workload, or none without a gate.
    """

    def __init__(
        self,
        service: PlannerService,
        registry: ModelRegistry,
        shadow: ShadowEvaluator | None = None,
        trainer: BackgroundTrainer | None = None,
        featurizer: QueryPlanFeaturizer | None = None,
    ):
        self.service = service
        self.registry = registry
        self.shadow = shadow
        self.trainer = trainer or BackgroundTrainer(registry)
        self.warm_queries = list(shadow.probe_queries) if shadow is not None else []
        self._featurizer = featurizer
        # One round (train, gate, swap) at a time across callers.
        self._advance_lock = threading.Lock()
        # One move (promote, rollback, resume) at a time across callers.
        self._move_lock = threading.Lock()
        #: Live-traffic monitor (``watch``/``disarm`` duck type), armed on
        #: every promotion with (candidate, displaced version); a
        #: TrafficShadower built over this lifecycle sets itself here.
        self.live_monitor = None

    @property
    def featurizer(self) -> QueryPlanFeaturizer:
        """The featuriser snapshots restore with (the serving network's
        unless one was given)."""
        if self._featurizer is not None:
            return self._featurizer
        return self._serving_network().featurizer

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
        with self._move_lock:
            snapshot = self.registry.register(network, source=source)
            self.registry.promote(snapshot.version)
        return snapshot

    # ------------------------------------------------------------------ #
    # Train → shadow → promote
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
        promotes it.  The serving path keeps answering throughout on its own
        threads; concurrent callers run their rounds one at a time.
        """
        self._gate()
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
        gate = self._gate()
        featurizer = self.featurizer
        candidate = snapshot.restore(featurizer)
        # Shadow-score the serving side on a private restored copy: the live
        # network's bare ``predict`` is not thread-safe, and service traffic
        # keeps scoring on it while this evaluation runs.  A lifecycle used
        # without an explicit baseline() gets one implicitly so the copy
        # always exists.
        serving_version = self.registry.serving_version
        if serving_version is None or serving_version not in self.registry:
            serving_version = self.baseline(source="auto-baseline").version
        shadow_serving = self.registry.restore(serving_version, featurizer)
        decision = gate.evaluate(
            candidate,
            shadow_serving,
            candidate_version=snapshot.version,
            serving_version=serving_version,
        )
        if decision.promoted:
            try:
                self._promote(snapshot, candidate, source="lifecycle-gate")
            except BaseException as error:
                # The trail records what happened: this version never served.
                self.registry.record_decision(replace(
                    decision, promoted=False,
                    reason=f"promotion failed: {type(error).__name__}: {error}",
                ))
                raise
        else:
            self.service.record_promotion_rejected()
        self.registry.record_decision(decision)
        return decision

    def warm(self) -> int:
        """Replan the known workload so post-swap traffic hits the cache."""
        if not self.warm_queries:
            return 0
        return self.service.warm_cache(self.warm_queries)

    # ------------------------------------------------------------------ #
    # The three moves
    # ------------------------------------------------------------------ #
    def promote(self, version: int, *, source: str) -> ModelSnapshot:
        """Make registered ``version`` the serving model (no gate).

        Raises:
            LifecycleError: ``version`` is unknown or was evicted.
            StateDictMismatchError: Its weights do not fit the featuriser.
            RuntimeError: The service is closed or has no network to swap.
        """
        snapshot = self.registry.get(version)
        return self._promote(snapshot, snapshot.restore(self.featurizer), source)

    def _promote(
        self, snapshot: ModelSnapshot, network: ValueNetwork, source: str
    ) -> ModelSnapshot:
        with self._move_lock:
            displaced = self._swap_in(
                network, lambda: self.registry.promote(snapshot.version)
            )
            self._after_move(watch=(snapshot.version, displaced))
            emit_event(
                "promotion",
                source=source,
                version=snapshot.version,
                previous_version=displaced,
            )
        return snapshot

    def rollback(
        self, *, expected_serving: int | None = None, source: str
    ) -> ModelSnapshot:
        """Revert serving to the previously promoted version (and rewarm).

        ``expected_serving`` is the registry's compare-and-rollback guard: a
        stale verdict (the live monitor condemning a version a concurrent
        promotion already displaced) aborts with a ``LifecycleError``
        instead of unseating the fresh promotion.  A rollback retires the
        promotion the live monitor was watching, so the monitor is disarmed
        (it re-arms on the next promotion).

        Returns:
            The snapshot serving after the rollback.
        """
        with self._move_lock:
            snapshot = self.registry.rollback_target(expected_serving)
            network = snapshot.restore(self.featurizer)
            displaced = self._swap_in(
                network,
                lambda: self.registry.rollback(expected_serving=expected_serving),
            )
            self._after_move(watch=None)
            emit_event(
                "rollback",
                source=source,
                version=snapshot.version,
                rolled_back_from=displaced,
            )
        return snapshot

    def resume(self) -> ModelSnapshot | None:
        """Serve the registry's serving snapshot (the boot-time restore).

        A no-op (None) when nothing was ever promoted or the service runs a
        protocol planner; otherwise the restored snapshot.  Nothing is
        warmed: no traffic has been served yet.
        """
        with self._move_lock:
            if (
                self.registry.serving_version is None
                or self.service.serving_network() is None
            ):
                return None
            snapshot = self.registry.serving()
            self._swap_in(snapshot.restore(self.featurizer), lambda: None)
            self._after_move(watch=None, warm=False)
            emit_event("resume", source="boot", version=snapshot.version)
        return snapshot

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _swap_in(
        self, network: ValueNetwork, move_pointer: Callable[[], object]
    ) -> int | None:
        """Swap ``network`` in and move the registry pointer as one.

        Runs under :attr:`_move_lock`.  If the pointer cannot move, the
        displaced network is swapped back before the error propagates, so
        the pointer and the live network never diverge.  On success the
        displaced network's cache entries are retired (both tiers, best
        effort) and the displaced registry version is returned.
        """
        displaced_version = self.registry.serving_version
        displaced = self._serving_network()
        self.service.swap_network(network)
        try:
            move_pointer()
        except BaseException:
            self.service.swap_network(displaced)
            raise
        # Version-keyed entries already stop matching once the swap lands;
        # invalidation releases the memory, locally and, through a tiered
        # cache, across every sharded worker at once.
        invalidate = getattr(self.service.cache, "invalidate_version", None)
        if invalidate is not None:
            try:
                invalidate(displaced.version_key())
            except Exception:  # noqa: BLE001 - bookkeeping must not fail the move
                pass
        return displaced_version

    def _after_move(
        self, *, watch: "tuple[int, int | None] | None", warm: bool = True
    ) -> None:
        """Warm the cache, then arm the live monitor with the ``watch``
        (candidate, displaced) pair or, without one, disarm it.

        Both are advisory: the move already landed, so a failure only warns.
        """
        steps = [self.warm] if warm else []
        monitor = self.live_monitor
        if monitor is not None:
            steps.append(monitor.disarm if watch is None else lambda: monitor.watch(*watch))
        for step in steps:
            try:
                step()
            except Exception as error:  # noqa: BLE001 - the move already landed
                warnings.warn(
                    f"after moving the serving model: {error}",
                    RuntimeWarning,
                    stacklevel=3,
                )

    def _gate(self) -> ShadowEvaluator:
        if self.shadow is None:
            raise LifecycleError(
                "this lifecycle has no promotion gate: pass a ShadowEvaluator "
                "to train and gate candidates"
            )
        return self.shadow

    def _serving_network(self) -> ValueNetwork:
        network = self.service.serving_network()
        if network is None:
            raise LifecycleError(
                "the service has no serving value network (protocol backends "
                "cannot participate in the model lifecycle)"
            )
        return network
