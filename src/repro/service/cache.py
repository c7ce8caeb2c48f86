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

**The shared tier's values** are this module's alone (the tier stores
opaque bytes).  A value is a 16-byte header followed by the result's reply
rendering (:func:`repro.server.wire.plan_result_json_bytes`, the bytes a
``/v1/plan`` reply splices in front of its per-request tail)::

    tag "RPT" + format 1 | crc32 of all that follows | plan count
    | fields offset | rendering

(four bytes each, integers little-endian).  The fields offset is where the
rendering's non-plan fields begin: the rendering ends with their JSON.  A
tier hit checks the tag and the checksum, decodes those fields — with the
decoder's own checks — and keeps the rendering as the result's reply
bytes; its ``plans`` are a :class:`TierPlans`, which decodes the plan trees
from the rendering the first time an in-process caller reads them, so a hit
served over HTTP builds none.  A value with another tag (a previous
release's worker during a rolling restart, a foreign writer), a failed
checksum (a corrupt or truncated entry) or fields that do not decode is a
miss, counted in ``decode_failures``.  The checksum guards integrity, not
authorship: a peer on the tier's socket could already store a well-formed
but wrong plan.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.planning.envelope import PlanResult
from repro.plans.nodes import PlanNode

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


#: A shared-tier value's header: tag, crc32 of the rest of the value, plan
#: count and the fields offset in the rendering that follows.
_VALUE_TAG = b"RPT\x01"
_VALUE_HEADER = struct.Struct("<4sIII")

#: Where a rendering's plan array ends: ``{"plans": [...], `` comes first
#: and the non-plan fields' JSON, from ``"predicted_latencies"`` on, after.
#: The plans' own text cannot hold it: their strings are escaped, so no
#: quote in them is bare.
_PLANS_END = b'], "predicted_latencies": '


def encode_tier_value(result: PlanResult) -> bytes:
    """``result`` as a shared-tier value: the header, then its rendering.

    Raises ``TypeError`` / ``ValueError`` when the result does not render
    (extras that are not JSON).
    """
    from repro.server.wire import plan_result_json_bytes

    rendering = plan_result_json_bytes(result)
    fields_at = rendering.index(_PLANS_END) + len(b"], ")
    body = struct.pack("<II", len(result.plans), fields_at) + rendering
    return _VALUE_TAG + struct.pack("<I", zlib.crc32(body)) + body


def decode_tier_value(value: bytes) -> PlanResult:
    """The result a shared-tier value holds, its plans not yet decoded.

    Raises ``ValueError`` (``WireFormatError`` for fields that decode to the
    wrong shape) when the tag, the checksum or the fields do not check out.
    """
    from repro.server.wire import plan_result_from_fields

    if len(value) < _VALUE_HEADER.size or not value.startswith(_VALUE_TAG):
        raise ValueError("not a shared-tier value of this format")
    _, checksum, count, fields_at = _VALUE_HEADER.unpack_from(value)
    if zlib.crc32(memoryview(value)[8:]) != checksum:
        raise ValueError("shared-tier value fails its checksum")
    rendering = value[_VALUE_HEADER.size:]
    fields = json.loads(b"{" + rendering[fields_at:])
    result = plan_result_from_fields(TierPlans(rendering, count), fields)
    # ``store`` rendered the result to exactly these bytes, and the decoded
    # result renders to them again: replies splice them as they are.
    result._json_bytes = rendering
    return result


class TierPlans(Sequence):
    """A shared-tier hit's plans: the count from the value's header, the
    trees decoded from its rendering (by
    :func:`~repro.server.wire.plan_result_from_json_dict`) when first read.

    Compares equal to the list of the same plans.  Two threads reading
    first may both decode, as two may both render ``_json_bytes``; either
    list is the plans, and the last one stays.  Plan text that does not
    decode (only a writer that computed the checksum over it can have put it
    there) raises ``WireFormatError`` at that first read.
    """

    def __init__(self, rendering: bytes, count: int):
        self._rendering = rendering
        self._count = count
        self._plans: list[PlanNode] | None = None

    def _decoded(self) -> list[PlanNode]:
        """The plan trees, decoded on the first call."""
        plans = self._plans
        if plans is None:
            from repro.server.wire import plan_result_from_json_dict

            plans = plan_result_from_json_dict(json.loads(self._rendering)).plans
            self._plans = plans
        return plans

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._decoded()[index]

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TierPlans):
            other = other._decoded()
        return self._decoded() == other

    __hash__ = None  # like the list it stands for

    def __repr__(self) -> str:
        return repr(self._decoded())


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
    stores write through to both, the tier getting the result's reply
    rendering behind a checked header (the module docstring has the
    format), so a plan computed by one gateway worker process is a cache hit
    on every other worker sharing the tier.  A tier hit is a result whose
    reply bytes are the value's rendering and whose plans are decoded only
    when read (:class:`TierPlans`); a value that fails its tag, checksum or
    fields decode is a miss counted in ``decode_failures``.

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
        try:
            result = decode_tier_value(payload)
        except ValueError:
            # A corrupt/foreign entry is a miss, never a failed request.
            with self._lock:
                self._decode_failures += 1
                self._shared_misses += 1
            return None
        with self._lock:
            self._shared_hits += 1
        self.local.store(key, result)
        return result

    def store(self, key: CacheKey, result: PlanResult) -> None:
        """Write through: the local LRU always, the shared tier best-effort."""
        self.local.store(key, result)
        try:
            # Holds the rendering an HTTP reply for this result splices in:
            # a miss encodes once for both.
            payload = encode_tier_value(result)
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
