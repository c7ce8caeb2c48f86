"""Plan cache: skip re-executing plans whose runtime is already known.

Paper §7 ("Optimizations"): *"A plan cache is used so that reissued plans have
their prior runtimes quickly looked up and can skip re-execution."*

A completed execution is always reusable.  A timed-out execution stored
under budget B answers a lookup with budget T only when both are uncapped, or
both are capped and T <= B: a larger budget might let the plan finish, and
an uncapped timeout is an explosion charged the engine's pessimistic latency,
where a capped execution of the same plan is charged its cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.execution.engine import ExecutionResult


@dataclass
class _CacheEntry:
    result: ExecutionResult
    timeout_budget: float | None


class PlanCache:
    """An in-memory cache of plan execution results.

    Keyed by ``(query key, plan fingerprint)``.  The environment passes the
    query's :meth:`~repro.sql.query.Query.fingerprint` as the key, never its
    client-chosen name.
    """

    def __init__(self):
        self._entries: dict[tuple[str, str], _CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, query_key: str, plan_fingerprint: str, timeout: float | None
    ) -> ExecutionResult | None:
        """Return a cached result usable under the requested timeout, if any."""
        entry = self._entries.get((query_key, plan_fingerprint))
        if entry is None:
            self.misses += 1
            return None
        if not entry.result.timed_out:
            self.hits += 1
            return entry.result
        # The cached run timed out: reuse it only under a budget of its own
        # kind (capped or not) that is not more generous than the one it
        # already failed under.
        budget = entry.timeout_budget
        if (timeout is None) == (budget is None) and (
            timeout is None or timeout <= budget
        ):
            self.hits += 1
            return entry.result
        self.misses += 1
        return None

    def store(
        self,
        query_key: str,
        plan_fingerprint: str,
        result: ExecutionResult,
        timeout: float | None,
    ) -> None:
        """Record an execution result.

        Completed results overwrite timed-out ones; timed-out results keep the
        largest budget they were observed failing under.
        """
        key = (query_key, plan_fingerprint)
        existing = self._entries.get(key)
        if existing is not None and not existing.result.timed_out and result.timed_out:
            return
        if (
            existing is not None
            and existing.result.timed_out
            and result.timed_out
            and existing.timeout_budget is not None
            and timeout is not None
            and timeout < existing.timeout_budget
        ):
            return
        self._entries[key] = _CacheEntry(result=result, timeout_budget=timeout)

    def clear(self) -> None:
        """Drop all cached entries and reset counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
