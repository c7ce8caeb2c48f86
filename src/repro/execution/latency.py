"""Converting operator work into simulated latency.

The latency model is the "hardware" of this reproduction.  Each physical
operator reports its work in abstract *tuple operations* weighted by
per-operator constants (hash build/probe, sort, index probe, tuple copy, ...),
and the model converts accumulated work into seconds by dividing by a
processing rate.  Execution is deterministic: the same plan on the same
data always takes the same simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LatencyModel:
    """Work-to-latency conversion constants.

    The defaults are tuned so that, at the default data scales used in this
    repository, well-optimized JOB-like queries land in the 10 ms – 2 s range
    and disastrous plans are orders of magnitude slower — matching the dynamic
    range the paper reports for the real engines.

    Attributes:
        tuples_per_second: Baseline processing rate.
        cpu_tuple_cost: Cost to emit/copy one tuple (applied to operator outputs).
        seq_scan_cost: Cost to scan one stored tuple.
        index_probe_cost: Cost of one index lookup (log-factor applied separately).
        hash_build_cost: Cost to insert one tuple into a hash table.
        hash_probe_cost: Cost to probe one tuple against a hash table.
        sort_cost: Cost multiplier for ``n log2 n`` sort work in merge joins.
        nested_loop_cost: Cost per inner-tuple comparison in non-indexed
            nested-loop joins.
        startup_cost: Fixed per-operator startup work.
        memory_limit_tuples: Hash tables larger than this spill and pay
            ``spill_factor`` on build and probe.
        spill_factor: Multiplier for spilled hash joins.
    """

    tuples_per_second: float = 2.0e6
    cpu_tuple_cost: float = 1.0
    seq_scan_cost: float = 1.0
    index_probe_cost: float = 2.0
    hash_build_cost: float = 2.0
    hash_probe_cost: float = 1.2
    sort_cost: float = 0.25
    nested_loop_cost: float = 0.08
    startup_cost: float = 50.0
    memory_limit_tuples: int = 200_000
    spill_factor: float = 3.0

    def to_latency(self, work: float) -> float:
        """Convert accumulated work units to seconds."""
        return float(work) / self.tuples_per_second

    def to_work(self, latency_seconds: float) -> float:
        """Convert a latency budget (seconds) back into a work budget."""
        return float(latency_seconds) * self.tuples_per_second
