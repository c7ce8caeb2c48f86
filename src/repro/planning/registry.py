"""String-keyed planner registry.

A :class:`PlannerRegistry` maps names like ``"beam"``, ``"dp"`` or
``"postgres"`` to :class:`~repro.planning.protocol.Planner` instances so that
"compare N planners" or "serve planner X" become one-line operations::

    registry = benchmark.planner_registry(network=agent.value_network)
    for name in registry.available():
        result = registry.get(name).plan(PlanRequest(query=q, k=3))

A program builds its own registry (usually with
:func:`~repro.planning.adapters.registry_from_benchmark`) and passes it to
what needs it.
"""

from __future__ import annotations

from threading import Lock

from repro.planning.envelope import UnknownPlannerError
from repro.planning.protocol import Planner


class PlannerRegistry:
    """A mutable, thread-safe mapping of planner names to planner instances."""

    def __init__(self):
        self._planners: dict[str, Planner] = {}
        self._lock = Lock()

    def register(self, name: str, planner: Planner) -> Planner:
        """Register ``planner`` under ``name``.

        Args:
            name: Non-empty registry key.
            planner: Any object implementing the :class:`Planner` protocol.

        Returns:
            The registered planner (for chaining).
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"planner name must be a non-empty string, got {name!r}")
        if not callable(getattr(planner, "plan", None)):
            raise TypeError(
                f"planner {planner!r} does not implement the Planner protocol "
                "(missing a callable .plan)"
            )
        with self._lock:
            if name in self._planners:
                raise ValueError(
                    f"planner {name!r} is already registered; names are unique"
                )
            self._planners[name] = planner
        return planner

    def get(self, name: str) -> Planner:
        """Look up the planner registered under ``name``."""
        with self._lock:
            try:
                return self._planners[name]
            except KeyError:
                raise UnknownPlannerError(
                    f"unknown planner {name!r}; registered: {sorted(self._planners) or 'none'}"
                ) from None

    def available(self) -> list[str]:
        """Sorted names of every registered planner."""
        with self._lock:
            return sorted(self._planners)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._planners

    def __len__(self) -> int:
        with self._lock:
            return len(self._planners)

