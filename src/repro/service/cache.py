"""Cross-query plan cache for the planner service.

Unlike the execution-side :class:`~repro.execution.plan_cache.PlanCache`
(which memoises *latencies* of executed plans during training), this cache
memoises *planner results*: the full top-k output of a beam search, keyed by
the query's structural fingerprint and the version of the model that produced
it.  A repeated query under an unchanged model skips search entirely; any
weight update (which bumps :meth:`ValueNetwork.bump_version`) naturally
invalidates every entry produced by the previous weights.

Two implementations share the interface:

- :class:`ServicePlanCache` — the in-process thread-safe LRU every service
  owns;
- :class:`TieredPlanCache` — that same LRU as an L1, layered over a
  cross-process shared tier (an owner-process
  :class:`~repro.service.shared_tier.PlanCacheServer` reached through a
  :class:`~repro.service.shared_tier.SharedCacheClient`, both in the module
  next door), so a plan computed by one sharded gateway worker is a hit on
  every other worker.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.planning.envelope import PlanResult

if TYPE_CHECKING:
    from repro.service.shared_tier import SharedCacheClient

#: Cache key: (query structural fingerprint, planner/model version key, k).
CacheKey = tuple[Hashable, ...]


def encode_cache_key(key: CacheKey) -> bytes:
    """Deterministic byte form of a cache key for the shared tier.

    Keys are tuples of strings, ints and nested tuples (fingerprints,
    ``ValueNetwork.version_key()`` pairs, ``k``, canonicalised knobs), whose
    ``repr`` is stable across processes — and across pre-forked workers,
    which inherit the very same network objects, so even the process-local
    ``uid`` component agrees.
    """
    return repr(key).encode("utf-8")


def version_tag(version: Hashable) -> bytes:
    """Byte form of a cache key's version component, for tier invalidation."""
    return repr(version).encode("utf-8")


@dataclass
class CacheStats:
    """Counters describing cache effectiveness.

    Attributes:
        hits: Lookups answered from the cache.
        misses: Lookups that fell through to planning.
        inserts: Entries stored.
        evictions: Entries evicted by the LRU policy.
        size: Current number of live entries.
        capacity: Maximum number of entries.
    """

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0


class ServicePlanCache:
    """A thread-safe LRU cache of :class:`PlanResult` objects.

    Args:
        capacity: Maximum number of entries; the least recently used entry is
            evicted when full.  Zero disables caching (every lookup misses).
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[CacheKey, PlanResult] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._inserts = 0
        self._evictions = 0

    def lookup(self, key: CacheKey) -> PlanResult | None:
        """Return the cached result for ``key``, refreshing its recency."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return result

    def store(self, key: CacheKey, result: PlanResult) -> None:
        """Insert ``result`` under ``key``, evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = result
            self._inserts += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def contains(self, key: CacheKey) -> bool:
        """Whether ``key`` is cached, without touching recency or counters."""
        with self._lock:
            return key in self._entries

    def invalidate_version(self, version: Hashable) -> int:
        """Drop every entry keyed to ``version`` (the key's second component).

        Version-keyed entries already roll over naturally on a hot swap (new
        requests look up the new version); explicit invalidation frees the
        memory a displaced model's plans would otherwise hold until LRU
        pressure evicts them.  Returns the number of entries dropped.
        """
        with self._lock:
            doomed = [
                key for key in self._entries if len(key) > 1 and key[1] == version
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        """Drop all entries (statistics are preserved)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """A snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                inserts=self._inserts,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )


class TieredPlanCache:
    """A local LRU (L1) layered over a cross-process shared tier (L2).

    Drop-in replacement for :class:`ServicePlanCache` inside a
    :class:`~repro.service.service.PlannerService`: lookups consult the local
    LRU first and fall through to the shared tier (promoting hits into L1);
    stores write through to both, serialising results with the JSON wire
    codecs (:mod:`repro.server.wire`), so a plan computed by one gateway
    worker process is a cache hit on every other worker sharing the tier.

    The shared tier is strictly best-effort: a connection failure, a decode
    failure or a crashed cache server degrades this cache to L1-only
    behaviour — foreground requests never fail because the tier did.

    Args:
        local: The in-process L1 (typically the service's existing cache).
        shared: The shared-tier connection; every method of it degrades to
            a miss / no-op when the tier is unreachable, so the L1 keeps
            serving alone.
    """

    def __init__(self, local: ServicePlanCache, shared: "SharedCacheClient"):
        self.local = local
        self.shared = shared
        self._lock = threading.Lock()
        self._shared_hits = 0
        self._shared_misses = 0
        self._shared_stores = 0
        self._encode_failures = 0
        self._decode_failures = 0

    def lookup(self, key: CacheKey) -> PlanResult | None:
        """L1 lookup, falling through to the shared tier on a miss."""
        result = self.local.lookup(key)
        if result is not None:
            return result
        payload = self.shared.get(encode_cache_key(key))
        if payload is None:
            with self._lock:
                self._shared_misses += 1
            return None
        from repro.server.wire import WireFormatError, plan_result_from_json_dict
        import json

        try:
            result = plan_result_from_json_dict(json.loads(payload.decode("utf-8")))
        except (WireFormatError, UnicodeDecodeError, ValueError):
            # A corrupt/foreign entry is a miss, never a failed request.
            with self._lock:
                self._decode_failures += 1
                self._shared_misses += 1
            return None
        # The payload is what ``store`` rendered (``plan_result_json_bytes``),
        # which a decoded result renders to again, byte for byte: replies
        # splice it instead of rendering the result a second time.
        result._json_bytes = payload
        with self._lock:
            self._shared_hits += 1
        self.local.store(key, result)
        return result

    def store(self, key: CacheKey, result: PlanResult) -> None:
        """Write through: the local LRU always, the shared tier best-effort."""
        self.local.store(key, result)
        from repro.server.wire import plan_result_json_bytes

        try:
            # The rendering an HTTP reply for this result splices in: a miss
            # encodes once for both.
            payload = plan_result_json_bytes(result)
        except (TypeError, ValueError):
            # Results carrying non-JSON extras stay local-only.
            with self._lock:
                self._encode_failures += 1
            return
        if self.shared.put(encode_cache_key(key), version_tag(key[1]), payload):
            with self._lock:
                self._shared_stores += 1

    def contains(self, key: CacheKey) -> bool:
        """Whether either tier holds ``key`` (no recency/counter updates)."""
        return self.local.contains(key) or self.shared.exists(encode_cache_key(key))

    def invalidate_version(self, version: Hashable) -> int:
        """Drop ``version``'s entries from both tiers; returns the total."""
        dropped = self.local.invalidate_version(version)
        return dropped + self.shared.invalidate(version_tag(version))

    def clear(self) -> None:
        """Drop all entries in both tiers (statistics are preserved)."""
        self.local.clear()
        self.shared.clear()

    def __len__(self) -> int:
        return len(self.local)

    def stats(self) -> CacheStats:
        """L1 counters (the interface :class:`ServiceMetrics` reports)."""
        return self.local.stats()

    def shared_stats(self) -> dict:
        """Tier-side counters: this client's view plus transport health."""
        with self._lock:
            report = {
                "shared_hits": self._shared_hits,
                "shared_misses": self._shared_misses,
                "shared_stores": self._shared_stores,
                "encode_failures": self._encode_failures,
                "decode_failures": self._decode_failures,
            }
        lookups = report["shared_hits"] + report["shared_misses"]
        report["shared_hit_rate"] = report["shared_hits"] / lookups if lookups else 0.0
        report["transport"] = self.shared.stats()
        return report
