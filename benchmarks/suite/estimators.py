"""Arithmetic of the suite: per-position estimates, percentiles, the Zipf cycle.

Every workload is a fixed cycle of operations repeated pass after pass.  One
pass gives one normalised time per cycle position (``probe.normalise``); the
estimate for a position is the *lower quartile* over the measured passes
(``typical``).  Percentiles are then taken over positions — the workload's
own spread of operation sizes — never over host noise.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import OrderedDict
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in 0..1) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def typical(values: Sequence[float]) -> float:
    """The suite's estimate from repeats of the same work: the lower quartile.

    What disturbs a repeat only ever adds time, so the undisturbed repeats sit
    low in the sample; the very lowest are those whose probe was itself
    disturbed (it read high), so the minimum is no better than the median.
    """
    return percentile(values, 0.25)


def per_position(passes: Sequence[Sequence[float]], reducer=typical) -> list[float]:
    """Reduce ``passes`` (one list of per-position times each) per position."""
    if not passes:
        raise ValueError("no measured passes")
    length = len(passes[0])
    if any(len(row) != length for row in passes):
        raise ValueError("passes disagree on the cycle length")
    return [reducer([row[index] for row in passes]) for index in range(length)]


def summarise(
    passes: Sequence[Sequence[float]],
    latency_positions: Sequence[int] | None = None,
    operations_per_pass: int | None = None,
) -> dict[str, float]:
    """The end-to-end timing metrics of one run.

    Args:
        passes: Measured passes; each holds one normalised time (seconds)
            per cycle position.
        latency_positions: Positions the latency percentiles are taken over
            (default: all).
        operations_per_pass: Operations one pass completes, for ``ops_per_s``
            (default: the cycle length).
    """
    estimates = per_position(passes)
    chosen = estimates if latency_positions is None else [
        estimates[index] for index in latency_positions
    ]
    operations = len(estimates) if operations_per_pass is None else operations_per_pass
    return {
        "op_latency_p50_ms": percentile(chosen, 0.50) * 1e3,
        "op_latency_p90_ms": percentile(chosen, 0.90) * 1e3,
        "ops_per_s": operations / sum(estimates),
        "pass_s": sum(estimates),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


# ---------------------------------------------------------------------- #
# The Zipf request cycle of ``served_mixed``
# ---------------------------------------------------------------------- #
def zipf_counts(keys: int, length: int, exponent: float = 1.0) -> list[int]:
    """How often each of ``keys`` ranks appears in a ``length``-request cycle.

    Exact expected shares ``1 / rank**exponent``, rounded by largest remainder
    so the counts sum to ``length`` and no draw is involved.
    """
    weights = [1.0 / (rank**exponent) for rank in range(1, keys + 1)]
    total = sum(weights)
    exact = [length * weight / total for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(range(keys), key=lambda i: (-(exact[i] - counts[i]), i))
    for index in by_remainder[: length - sum(counts)]:
        counts[index] += 1
    return counts


def zipf_cycle(keys: int, length: int, shuffle_seed: int = 0) -> list[int]:
    """The fixed request cycle: Zipf counts in one fixed shuffled order."""
    cycle = [
        key for key, count in enumerate(zipf_counts(keys, length)) for _ in range(count)
    ]
    random.Random(shuffle_seed).shuffle(cycle)
    return cycle


def rotate(cycle: Sequence, offset: int) -> list:
    """``cycle`` entered at ``offset`` (the multiset and the order are kept)."""
    offset %= len(cycle)
    return list(cycle[offset:]) + list(cycle[:offset])


def permute(items: Sequence, seed: int) -> list:
    """A seeded permutation of ``items`` (same multiset for every seed)."""
    shuffled = list(items)
    random.Random(seed).shuffle(shuffled)
    return shuffled


def simulate_tiers(
    cycle: Sequence[int], l1_capacity: int, shared_capacity: int, passes: int
) -> list[dict]:
    """Model of the two LRU tiers under ``cycle``, pass by pass.

    Mirrors ``TieredPlanCache``: an L1 miss consults the shared tier (a hit
    is promoted into L1), a full miss stores into both.  Returns per pass the
    outcome string (``L``/``S``/``M`` per request) and the counts, which is
    how the cycle length and the two capacities were chosen and what the
    suite's tests hold the cycle to.
    """
    l1: OrderedDict[int, None] = OrderedDict()
    shared: OrderedDict[int, None] = OrderedDict()
    report = []
    for _ in range(passes):
        outcomes = []
        evictions = stores = 0
        for key in cycle:
            if key in l1:
                l1.move_to_end(key)
                outcomes.append("L")
                continue
            if key in shared:
                shared.move_to_end(key)
                outcomes.append("S")
            else:
                outcomes.append("M")
                shared[key] = None
                stores += 1
                while len(shared) > shared_capacity:
                    shared.popitem(last=False)
            l1[key] = None
            while len(l1) > l1_capacity:
                l1.popitem(last=False)
                evictions += 1
        text = "".join(outcomes)
        report.append(
            {
                "outcomes": text,
                "l1_hits": text.count("L"),
                "shared_hits": text.count("S"),
                "misses": text.count("M"),
                "l1_evictions": evictions,
                "shared_stores": stores,
            }
        )
    return report
