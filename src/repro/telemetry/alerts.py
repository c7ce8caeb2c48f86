"""Alert state machine over SLO burn rates, with protective-action hooks.

:class:`AlertManager` folds :class:`~repro.telemetry.slo.SloStatus` rows
into per-objective alerts with the classic three-state lifecycle:

    inactive → **pending** (breaching, waiting out ``pending_for``)
             → **firing**  (breach sustained; notified + actions invoked)
             → **resolved** (recovered; kept in history)

Notifications are events on the PR-8 lifecycle bus (``kind="alert"``), so
they stream live over ``GET /v1/metrics/stream`` as ``event: alert``
frames, and a consumer holding a cursor reads them back with
``EventBus.since(cursor)``.  Dedup is by-state: a firing
alert re-notifies only every ``renotify_interval_seconds`` instead of on
every evaluation tick.

Protective actions subscribe via :meth:`AlertManager.add_listener`; the
callback receives the manager after any state transition, reads
``firing()``/``pending()``, and decides (the gateway pauses online-trainer
promotions and tightens the traffic shadower there — this module stays
policy-free).

The manager can run its own evaluation thread (``start()`` with a
``snapshot_fn``) or be driven synchronously (``evaluate(snapshot)``) from
tests and single-shot tools.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.telemetry.events import emit_event
from repro.telemetry.slo import SloEvaluator, SloStatus

__all__ = ["Alert", "AlertManager"]

STATE_PENDING = "pending"
STATE_FIRING = "firing"
STATE_RESOLVED = "resolved"

MAX_RESOLVED_HISTORY = 32


@dataclass
class Alert:
    """One objective's alert record (mutable; owned by the manager)."""

    name: str
    state: str
    since: float
    description: str = ""
    fired_at: float | None = None
    resolved_at: float | None = None
    last_notified: float | None = None
    notify_count: int = 0
    status: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "since": self.since,
            "description": self.description,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "last_notified": self.last_notified,
            "notify_count": self.notify_count,
            "status": dict(self.status),
        }


class AlertManager:
    """Evaluates SLOs on a cadence and runs the alert lifecycle.

    Args:
        evaluator: The burn-rate evaluator to drive.
        pending_for_seconds: How long a breach must persist before the
            alert fires (absorbs single-tick blips).
        renotify_interval_seconds: Minimum spacing between repeated
            ``firing`` notifications for the same alert.
        interval_seconds: Evaluation cadence for the background thread.
        snapshot_fn: Zero-arg callable returning a registry snapshot dict;
            required only when using ``start()``.
        emit: Event publisher (defaults to the process-global bus).
        clock: Injectable monotonic clock.
    """

    def __init__(
        self,
        evaluator: SloEvaluator | None = None,
        *,
        pending_for_seconds: float = 30.0,
        renotify_interval_seconds: float = 300.0,
        interval_seconds: float = 1.0,
        snapshot_fn: Callable[[], dict] | None = None,
        emit: Callable[..., object] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if pending_for_seconds < 0:
            raise ValueError(
                f"pending_for_seconds must be >= 0, got {pending_for_seconds}"
            )
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {interval_seconds}"
            )
        self.evaluator = evaluator if evaluator is not None else SloEvaluator()
        self.pending_for_seconds = float(pending_for_seconds)
        self.renotify_interval_seconds = float(renotify_interval_seconds)
        self.interval_seconds = float(interval_seconds)
        self.snapshot_fn = snapshot_fn
        self._emit = emit if emit is not None else emit_event
        self._clock = clock
        self._lock = threading.Lock()
        self._active: dict[str, Alert] = {}
        self._resolved: list[Alert] = []
        self._listeners: list[Callable[[AlertManager], None]] = []
        self._evaluations = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- wiring ------------------------------------------------------------

    def add_listener(self, listener: Callable[[AlertManager], None]) -> None:
        """Register a protective-action hook, called (outside the manager
        lock) after every evaluation that changed any alert's state."""
        self._listeners.append(listener)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, snapshot: dict, now: float | None = None) -> list[SloStatus]:
        """Run one evaluation tick against ``snapshot``."""
        if now is None:
            now = self._clock()
        statuses = self.evaluator.observe(snapshot, now)
        changed = False
        with self._lock:
            self._evaluations += 1
            for status in statuses:
                changed |= self._transition_locked(status, now)
        if changed:
            for listener in list(self._listeners):
                try:
                    listener(self)
                except Exception:
                    pass  # a broken action must not stop evaluation
        return statuses

    def _transition_locked(self, status: SloStatus, now: float) -> bool:
        alert = self._active.get(status.name)
        if status.breaching:
            if alert is None:
                alert = Alert(
                    name=status.name,
                    state=STATE_PENDING,
                    since=now,
                    description=status.description,
                    status=status.to_json_dict(),
                )
                self._active[status.name] = alert
                if self.pending_for_seconds == 0:
                    alert.state = STATE_FIRING
                    alert.fired_at = now
                    self._notify_locked(alert, now)
                return True
            alert.status = status.to_json_dict()
            if alert.state == STATE_PENDING:
                if now - alert.since >= self.pending_for_seconds:
                    alert.state = STATE_FIRING
                    alert.fired_at = now
                    self._notify_locked(alert, now)
                    return True
                return False
            # Already firing: dedup, re-notify on the interval only.
            if (
                alert.last_notified is None
                or now - alert.last_notified >= self.renotify_interval_seconds
            ):
                self._notify_locked(alert, now)
            return False
        if alert is None:
            return False
        del self._active[status.name]
        if alert.state == STATE_PENDING:
            # Never fired: a blip the pending window absorbed; no event.
            return True
        alert.state = STATE_RESOLVED
        alert.resolved_at = now
        alert.status = status.to_json_dict()
        self._resolved.append(alert)
        del self._resolved[:-MAX_RESOLVED_HISTORY]
        self._emit(
            "alert",
            name=alert.name,
            state=STATE_RESOLVED,
            description=alert.description,
            fast_burn_rate=status.fast_burn_rate,
            slow_burn_rate=status.slow_burn_rate,
        )
        return True

    def _notify_locked(self, alert: Alert, now: float) -> None:
        alert.last_notified = now
        alert.notify_count += 1
        status = alert.status
        self._emit(
            "alert",
            name=alert.name,
            state=alert.state,
            description=alert.description,
            fast_burn_rate=status.get("fast_burn_rate", 0.0),
            slow_burn_rate=status.get("slow_burn_rate", 0.0),
            burn_threshold=status.get("burn_threshold", 0.0),
            notify_count=alert.notify_count,
        )

    # -- read side ---------------------------------------------------------

    def firing(self) -> list[str]:
        with self._lock:
            return sorted(
                name
                for name, alert in self._active.items()
                if alert.state == STATE_FIRING
            )

    def pending(self) -> list[str]:
        with self._lock:
            return sorted(
                name
                for name, alert in self._active.items()
                if alert.state == STATE_PENDING
            )

    def to_json_dict(self) -> dict:
        """The ``GET /v1/alerts`` body: active alerts, recent resolutions,
        and the objectives being watched."""
        with self._lock:
            active = [
                alert.to_json_dict()
                for _, alert in sorted(self._active.items())
            ]
            resolved = [alert.to_json_dict() for alert in self._resolved[-8:]]
            evaluations = self._evaluations
        return {
            "firing": [a["name"] for a in active if a["state"] == STATE_FIRING],
            "pending": [a["name"] for a in active if a["state"] == STATE_PENDING],
            "active": active,
            "recently_resolved": resolved,
            "evaluations": evaluations,
            "objectives": [
                {
                    "name": o.name,
                    "objective": o.objective,
                    "burn_threshold": o.burn_threshold,
                    "description": o.description,
                }
                for o in self.evaluator.objectives
            ],
            "windows": {
                "fast_seconds": self.evaluator.fast_window_seconds,
                "slow_seconds": self.evaluator.slow_window_seconds,
                "pending_for_seconds": self.pending_for_seconds,
                "renotify_interval_seconds": self.renotify_interval_seconds,
            },
        }

    # -- background thread -------------------------------------------------

    def start(self) -> None:
        """Start the evaluation thread (requires ``snapshot_fn``)."""
        if self.snapshot_fn is None:
            raise ValueError("AlertManager.start() requires snapshot_fn")
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-alertmanager", daemon=True
            )
            self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        self._stop.set()
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def _run(self) -> None:
        assert self.snapshot_fn is not None
        while not self._stop.wait(self.interval_seconds):
            try:
                snapshot = self.snapshot_fn()
            except Exception:
                continue  # the gateway may be mid-shutdown
            self.evaluate(snapshot)
