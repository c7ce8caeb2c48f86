"""Safe execution via timeouts (paper §4.3).

Iteration 0 (right after simulation learning) runs every plan to completion;
let ``T`` be the maximum per-query runtime observed.  Every later iteration
applies a timeout of ``S x T`` to all agent-produced plans, where ``S`` is a
slack factor (Balsa uses 2).  Whenever an iteration finishes with a smaller
maximum per-query runtime ``T' < T``, the budget tightens to ``S x T'`` — a
self-generated curriculum.  Timed-out plans receive a large constant label
(4096 s) instead of their unknown true latency.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TimeoutPolicy:
    """Tracks and tightens the per-iteration execution timeout.

    Attributes:
        slack: Slack factor ``S``.
        timeout_label: Label assigned to timed-out executions.
        enabled: Disable to reproduce the "no timeout" ablation (§8.3.2).
    """

    slack: float = 2.0
    timeout_label: float = 4096.0
    enabled: bool = True
    _max_runtime: float | None = None

    def current_timeout(self) -> float | None:
        """Timeout to apply to this iteration's executions (None = unlimited)."""
        if not self.enabled or self._max_runtime is None:
            return None
        return self.slack * self._max_runtime

    def observe_iteration(self, max_per_query_runtime: float) -> None:
        """Record an iteration's maximum per-query runtime, tightening if smaller."""
        if max_per_query_runtime <= 0:
            return
        if self._max_runtime is None or max_per_query_runtime < self._max_runtime:
            self._max_runtime = max_per_query_runtime

    def label_for(self, latency: float, timed_out: bool) -> float:
        """Training label for an execution (§4.3: big constant if timed out)."""
        return self.timeout_label if timed_out else latency
