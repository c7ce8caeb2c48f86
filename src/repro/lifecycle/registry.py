"""The versioned model registry: the source of truth for serving weights.

``ModelRegistry`` stores immutable :class:`ModelSnapshot` checkpoints under
monotone version numbers and tracks which one is *serving*.  ``promote``
moves the serving pointer forward (normally after the shadow gate passes),
``rollback`` moves it back to the previously serving version, and a bounded
retention policy evicts the oldest non-serving snapshots so long-running
agents do not accumulate every checkpoint ever trained.

The registry is deliberately storage-agnostic (snapshots live in memory as
numpy arrays); persistence layers can serialise ``snapshot.state`` however
they like.
"""

from __future__ import annotations

import dataclasses
import json
import re
import threading
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.featurization.featurizer import QueryPlanFeaturizer
from repro.lifecycle.snapshot import LifecycleError, ModelSnapshot
from repro.model.value_network import ValueNetwork

if TYPE_CHECKING:
    from repro.lifecycle.shadow import PromotionDecision

#: Snapshots a registry keeps before it evicts the oldest evictable ones.
RETENTION = 16


class ModelRegistry:
    """Thread-safe registry of immutable, versioned model snapshots.

    It keeps at most :data:`RETENTION` snapshots: beyond that the oldest are
    evicted — except the serving version and the versions on the current
    rollback chain, which are always retained.

    Args:
        persist_dir: Optional directory the registry mirrors the serving
            chain into: every promotion (and rollback) writes the newly
            serving snapshot as ``model-v<version>.npz`` via
            :meth:`ModelSnapshot.save`, plus the chain itself, so a restarted
            gateway resumes it through :meth:`load_persisted`.
    """

    def __init__(self, persist_dir: str | Path | None = None):
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
        self._snapshots: dict[int, ModelSnapshot] = {}
        self._next_version = 1
        self._serving_history: list[int] = []
        self._decisions: list["PromotionDecision"] = []
        self._lock = threading.RLock()
        # Serialises persistence so concurrent promote/rollback calls can
        # never mirror serving-pointer changes to disk out of order.
        self._persist_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Registration and lookup
    # ------------------------------------------------------------------ #
    def register(
        self,
        network: ValueNetwork,
        source: str = "",
        parent_version: int | None = None,
        tag: str = "",
    ) -> ModelSnapshot:
        """Snapshot ``network`` and store it under the next version number.

        The snapshot copies the weights, so training the network further
        never mutates what was registered.
        """
        with self._lock:
            # Lineage may point at an already-evicted ancestor; only reject
            # versions the registry never issued.
            if parent_version is not None and not (
                1 <= parent_version < self._next_version
            ):
                raise LifecycleError(
                    f"parent version {parent_version} was never registered"
                )
            version = self._next_version
            self._next_version += 1
            snapshot = ModelSnapshot.capture(
                network, version, source=source, parent_version=parent_version, tag=tag
            )
            self._snapshots[version] = snapshot
            self._evict_locked()
            return snapshot

    def get(self, version: int) -> ModelSnapshot:
        """Look up a snapshot by version (evicted/unknown versions raise)."""
        with self._lock:
            try:
                return self._snapshots[version]
            except KeyError:
                raise LifecycleError(
                    f"unknown model version {version}; retained: {self.versions()}"
                ) from None

    def versions(self) -> list[int]:
        """Retained versions, ascending."""
        with self._lock:
            return sorted(self._snapshots)

    def snapshots(self) -> list[ModelSnapshot]:
        """A consistent list of the retained snapshots, ascending by version.

        One lock acquisition — callers iterating ``versions()`` and calling
        :meth:`get` per entry would race concurrent retention eviction.
        """
        with self._lock:
            return [self._snapshots[version] for version in sorted(self._snapshots)]

    def latest(self) -> ModelSnapshot:
        """The most recently registered snapshot."""
        with self._lock:
            if not self._snapshots:
                raise LifecycleError("registry holds no snapshots")
            return self._snapshots[max(self._snapshots)]

    def restore(self, version: int, featurizer: QueryPlanFeaturizer) -> ValueNetwork:
        """Materialise a fresh network carrying ``version``'s weights."""
        return self.get(version).restore(featurizer)

    def __contains__(self, version: int) -> bool:
        with self._lock:
            return version in self._snapshots

    def __len__(self) -> int:
        with self._lock:
            return len(self._snapshots)

    # ------------------------------------------------------------------ #
    # Serving pointer: promote / rollback
    # ------------------------------------------------------------------ #
    @property
    def serving_version(self) -> int | None:
        """The version currently marked serving (None before first promote)."""
        with self._lock:
            return self._serving_history[-1] if self._serving_history else None

    def serving(self) -> ModelSnapshot:
        """The serving snapshot."""
        with self._lock:
            version = self.serving_version
            if version is None:
                raise LifecycleError("no version has been promoted yet")
            return self.get(version)

    def serving_history(self) -> list[int]:
        """The promote/rollback chain, oldest first (last entry is serving)."""
        with self._lock:
            return list(self._serving_history)

    def promote(self, version: int) -> ModelSnapshot:
        """Mark ``version`` as serving (it must be registered).

        With ``persist_dir`` set, the snapshot is written to disk *before*
        the serving pointer moves, so a persistence failure (full disk,
        permissions) fails the promotion cleanly instead of leaving a
        serving version that was never persisted.  The serving chain is
        then mirrored outside the lock.
        """
        with self._lock:
            snapshot = self.get(version)
        if self.persist_dir is not None:
            path = self.snapshot_path(snapshot.version)
            if not path.exists():
                snapshot.save(path)
        with self._lock:
            snapshot = self.get(version)  # still registered after the I/O
            if self.serving_version != version:
                self._serving_history.append(version)
            self._evict_locked()
        self._serving_changed()
        return snapshot

    def rollback_target(self, expected_serving: int | None = None) -> ModelSnapshot:
        """The snapshot :meth:`rollback` would make serving; nothing moves.

        Args:
            expected_serving: Optional compare-and-rollback guard: the
                rollback only applies if this version is still the serving
                one (checked under the registry lock, so a concurrent
                promotion cannot be unseated by a stale verdict — the
                live-traffic shadower's automatic rollback uses this).

        Raises:
            LifecycleError: Nothing to roll back to (fewer than two
                promotions recorded), or ``expected_serving`` no longer
                matches the serving version.
        """
        with self._lock:
            if (
                expected_serving is not None
                and self.serving_version != expected_serving
            ):
                raise LifecycleError(
                    f"rollback aborted: expected v{expected_serving} serving, "
                    f"but v{self.serving_version} is"
                )
            if len(self._serving_history) < 2:
                raise LifecycleError(
                    "nothing to roll back to: fewer than two promotions recorded"
                )
            return self.get(self._serving_history[-2])

    def rollback(self, expected_serving: int | None = None) -> ModelSnapshot:
        """Revert the serving pointer to the previously serving version.

        Takes the guard and raises as :meth:`rollback_target` does; returns
        the snapshot that is serving after the rollback.
        """
        with self._lock:
            snapshot = self.rollback_target(expected_serving)
            self._serving_history.pop()
        self._serving_changed()
        return snapshot

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def snapshot_path(self, version: int) -> Path:
        """Where ``version`` is (or would be) persisted on disk."""
        if self.persist_dir is None:
            raise LifecycleError("registry has no persist_dir configured")
        return self.persist_dir / f"model-v{version}.npz"

    def manifest_path(self) -> Path:
        """Where the serving-chain manifest is persisted on disk."""
        if self.persist_dir is None:
            raise LifecycleError("registry has no persist_dir configured")
        return self.persist_dir / "serving.json"

    def _write_manifest(self) -> None:
        """Mirror the serving chain to ``serving.json`` (write-then-rename).

        The snapshot files alone cannot tell a restarted gateway *which*
        version was serving — after a rollback the newest file on disk is
        exactly the version that was rolled away from — so the chain itself
        is persisted alongside them.
        """
        with self._lock:
            manifest = {
                "format": "model-registry-v1",
                "serving_history": list(self._serving_history),
                "next_version": self._next_version,
            }
        path = self.manifest_path()
        partial = path.with_name(path.name + ".partial")
        partial.write_text(json.dumps(manifest))
        partial.replace(path)

    @classmethod
    def load_persisted(cls, persist_dir: str | Path) -> "ModelRegistry":
        """Restore a registry (snapshots + serving chain) from ``persist_dir``.

        The inverse of ``ModelRegistry(persist_dir=...)``'s mirroring: every
        ``model-v<N>.npz`` the serving chain left behind is loaded back under
        its original version number, and ``serving.json`` restores the
        promote/rollback chain — so a restarted gateway resumes serving the
        last promoted model, with the previous version still available as a
        rollback target.  Version numbering continues where the previous
        process stopped.

        Corrupt or torn snapshot files are skipped with a
        :class:`RuntimeWarning` (a chain whose serving version cannot be
        loaded falls back to the newest loadable snapshot).

        Args:
            persist_dir: Directory a previous registry mirrored into.

        Raises:
            LifecycleError: ``persist_dir`` holds no loadable snapshots.
        """
        persist_dir = Path(persist_dir)
        registry = cls(persist_dir=persist_dir)
        loaded: dict[int, ModelSnapshot] = {}
        for path in sorted(persist_dir.glob("model-v*.npz")):
            match = re.fullmatch(r"model-v(\d+)\.npz", path.name)
            if match is None:
                continue
            try:
                snapshot = ModelSnapshot.load(path)
            except Exception as error:  # noqa: BLE001 - skip torn files
                warnings.warn(
                    f"skipping unloadable snapshot {path.name}: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            version = int(match.group(1))
            if snapshot.version != version:
                # The filename is authoritative (replace, not a hand-copied
                # constructor call, so future snapshot fields survive).
                snapshot = dataclasses.replace(snapshot, version=version)
            loaded[version] = snapshot
        if not loaded:
            raise LifecycleError(
                f"no loadable model snapshots under {persist_dir}"
            )
        history: list[int] = []
        next_version = max(loaded) + 1
        manifest_path = persist_dir / "serving.json"
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
                if not isinstance(manifest, dict):
                    raise ValueError(
                        f"expected a JSON object, got {type(manifest).__name__}"
                    )
                history = [
                    version
                    for version in manifest.get("serving_history", [])
                    if isinstance(version, int) and version in loaded
                ]
                next_version = max(
                    next_version, int(manifest.get("next_version", next_version))
                )
            except (ValueError, TypeError) as error:
                warnings.warn(
                    f"ignoring corrupt serving manifest {manifest_path.name}: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if not history:
            # No (usable) manifest: the newest loadable snapshot was the last
            # one the old registry wrote on a serving change.
            history = [max(loaded)]
        # Collapse duplicates rollback pruning may have produced.
        collapsed: list[int] = []
        for version in history:
            if not collapsed or collapsed[-1] != version:
                collapsed.append(version)
        with registry._lock:
            registry._snapshots = loaded
            registry._serving_history = collapsed
            registry._next_version = next_version
            registry._evict_locked()
        return registry

    def _serving_changed(self) -> None:
        # Re-read the serving pointer under the persist lock rather than
        # trusting the triggering call's snapshot: when promote/rollback race,
        # whichever write runs last must describe the registry's final state,
        # never a stale intermediate one.  The pointer has already moved by
        # the time this runs, so nothing here may raise.
        if self.persist_dir is None:
            return
        with self._persist_lock:
            with self._lock:
                version = self.serving_version
                if version is None:
                    return
                snapshot = self.get(version)
            try:
                path = self.snapshot_path(snapshot.version)
                if not path.exists():
                    snapshot.save(path)
                self._write_manifest()
            except OSError as error:
                warnings.warn(
                    f"could not persist serving snapshot v{snapshot.version}: "
                    f"{error}",
                    RuntimeWarning,
                    stacklevel=3,
                )

    # ------------------------------------------------------------------ #
    # Audit trail
    # ------------------------------------------------------------------ #
    def record_decision(self, decision: "PromotionDecision") -> None:
        """Append a shadow-gate decision to the audit trail."""
        with self._lock:
            self._decisions.append(decision)

    def decisions(self) -> list["PromotionDecision"]:
        """Every recorded shadow-gate decision, oldest first."""
        with self._lock:
            return list(self._decisions)

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def _protected_versions(self) -> set[int]:
        """Versions retention must never evict.

        Bounded by construction: the serving version, the rollback target
        (the previous distinct serving version), and the newest registration
        (which a caller is typically about to promote).  Older entries of
        the serving history become evictable — otherwise a promote-every-
        round workload (the agent's pipelined training) would protect every
        version ever served and end up evicting each new candidate the
        moment it is registered.
        """
        protected: set[int] = set()
        for version in reversed(self._serving_history):
            protected.add(version)
            if len(protected) == 2:
                break
        if self._snapshots:
            protected.add(max(self._snapshots))
        return protected

    def _evict_locked(self) -> None:
        protected = self._protected_versions()
        evictable: Iterable[int] = sorted(
            v for v in self._snapshots if v not in protected
        )
        for version in evictable:
            if len(self._snapshots) <= RETENTION:
                break
            del self._snapshots[version]
        # Rollback must never target an evicted snapshot: drop history
        # entries whose snapshots are gone (collapsing duplicates that
        # pruning creates) so the chain always ends on retained versions.
        pruned: list[int] = []
        for version in self._serving_history:
            if version in self._snapshots and (not pruned or pruned[-1] != version):
                pruned.append(version)
        self._serving_history = pruned
