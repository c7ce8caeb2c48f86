"""The unified metrics registry: counters, gauges, histograms, Prometheus text.

A registry is the one store for the numbers a component counts.  Two rules
decide how a number gets in:

1. An event a component counts is an instrument (:class:`Counter`,
   :class:`Histogram`), incremented where it is counted.  Every instrument
   of a registry shares the registry's :attr:`~MetricsRegistry.lock`, so an
   owner that books several of them at once holds it once around the lot,
   and a snapshot never sees half a booking.
2. Anything else — state (pending requests, cache size, alerts firing) and
   numbers another process, transport or module global counts — is a
   reader: a callable its owner registers once with
   :meth:`Counter.set_function` / :meth:`Gauge.set_function` (one series) or
   :meth:`MetricsRegistry.add_reader` (a family whose series vary), and which
   every snapshot calls.

The owners' JSON views (``ServiceMetrics`` and friends) read the same
instruments.  Two consumers read the registry:

- ``GET /metrics`` renders Prometheus text exposition (:func:`render_snapshot`);
- the sharded supervisor pulls :meth:`MetricsRegistry.snapshot` dicts pushed
  by each worker and folds them with :func:`merge_snapshots` (counters sum,
  histogram buckets merge, gauges follow their declared aggregation), so one
  scrape of the supervisor covers the whole fleet.

Histograms use fixed log-spaced latency buckets (100µs → 10s): fixed bounds
are what makes cross-process merging a plain element-wise sum.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Callable, Iterable

#: Log-spaced latency buckets in seconds (upper bounds; +Inf is implicit).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Valid gauge aggregation modes for fleet merging.
_GAUGE_AGGREGATIONS = frozenset({"sum", "max", "min", "mean", "last"})

#: Gauges that are a ratio of summed series with the same labels: the
#: numerator over the sum of the denominators.  A fleet merge re-derives
#: them from the merged series: averaging per-worker ratios would weigh an
#: idle worker like a busy one, and summing them would pass 1.
_RATIOS = {
    "repro_service_cache_hit_rate": (
        "repro_service_cache_hits_total", ("repro_service_requests_total",),
    ),
    "repro_shared_cache_client_shared_hit_rate": (
        "repro_shared_cache_client_shared_hits",
        ("repro_shared_cache_client_shared_hits", "repro_shared_cache_client_shared_misses"),
    ),
}


def _labels_key(labels: "dict[str, str] | None") -> tuple:
    if not labels:
        return ()
    return tuple(sorted(labels.items())) if len(labels) > 1 else tuple(labels.items())


class _Value:
    """A stored number, or a reader's (see :meth:`set_function`)."""

    __slots__ = ("labels", "_value", "_lock", "_fn")

    def __init__(self, labels: "dict[str, str] | None" = None):
        self.labels = dict(labels or {})
        self._value = 0
        self._lock = threading.RLock()
        self._fn: "Callable[[], float | None] | None" = None

    def set_function(self, fn: "Callable[[], float | None]") -> None:
        """Read the value from ``fn()`` at every snapshot instead.

        For a number this component does not count itself.  ``fn`` returning
        None leaves the series out of that snapshot.
        """
        self._fn = fn

    @property
    def value(self) -> "float | None":
        return self._value if self._fn is None else self._fn()


class Counter(_Value):
    """A monotonically increasing cumulative count."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount


class Gauge(_Value):
    """A point-in-time value; ``aggregation`` governs fleet merging."""

    __slots__ = ("aggregation",)

    def __init__(
        self, labels: "dict[str, str] | None" = None, aggregation: str = "sum"
    ):
        if aggregation not in _GAUGE_AGGREGATIONS:
            raise ValueError(f"unknown gauge aggregation {aggregation!r}")
        super().__init__(labels)
        self.aggregation = aggregation
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)


class Histogram:
    """Fixed-bucket distribution (cumulative ``le`` rendering, mergeable)."""

    __slots__ = ("labels", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        labels: "dict[str, str] | None" = None,
        buckets: "tuple[float, ...]" = DEFAULT_BUCKETS,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.labels = dict(labels or {})
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.RLock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum


class _Family:
    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help: str):
        self.name = name
        self.kind = kind
        self.help = help
        self.children: dict = {}


class MetricsRegistry:
    """Named metric families with get-or-create semantics.

    Each owner keeps its own registry (a planner service, a gateway, a
    shadower, a trainer loop), so parallel test servers in one process never
    share counters; a gateway's snapshot merges its owners' snapshots.
    """

    def __init__(self):
        #: Guards every instrument of this registry (re-entrant: an owner
        #: holds it around a batch of increments that each take it again).
        self.lock = threading.RLock()
        self._families: dict[str, _Family] = {}
        self._readers: list[Callable[[], Iterable[dict]]] = []

    def _get_or_create(self, name: str, kind: str, help: str, labels, cls, *args):
        key = _labels_key(labels)
        family = self._families.get(name)
        # A series is created once and never removed: finding it needs no lock.
        if family is not None and family.kind == kind:
            child = family.children.get(key)
            if child is not None:
                return child
        with self.lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}"
                )
            child = family.children.get(key)
            if child is None:
                child = cls(labels, *args)
                child._lock = self.lock
                family.children[key] = child
            return child

    def counter(
        self, name: str, help: str = "", labels: "dict[str, str] | None" = None
    ) -> Counter:
        return self._get_or_create(name, "counter", help, labels, Counter)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: "dict[str, str] | None" = None,
        aggregation: str = "sum",
    ) -> Gauge:
        return self._get_or_create(name, "gauge", help, labels, Gauge, aggregation)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: "dict[str, str] | None" = None,
        buckets: "tuple[float, ...]" = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(name, "histogram", help, labels, Histogram, buckets)

    def add_reader(self, fn: "Callable[[], Iterable[dict]]") -> None:
        """Register a reader of a family whose series vary between snapshots.

        ``fn()`` returns snapshot entries (see :func:`gauge_entries`); every
        snapshot appends them.
        """
        self._readers.append(fn)

    def series(self, name: str) -> list:
        """The instruments of family ``name`` (empty when none exists)."""
        with self.lock:
            family = self._families.get(name)
            return list(family.children.values()) if family is not None else []

    def reset(self) -> None:
        """Zero every instrument this registry stores (readers are the
        owners' to keep)."""
        with self.lock:
            for family in self._families.values():
                for child in family.children.values():
                    if isinstance(child, Histogram):
                        child._counts = [0] * len(child._counts)
                        child._sum = 0.0
                        child._count = 0
                    else:
                        child._value = 0

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def snapshot(self, labels: "dict[str, str] | None" = None) -> dict:
        """A JSON-able dump — what sharded workers push to the supervisor.

        ``labels`` are added to every series (a gateway labels each
        service's series with its ``planner``).  Stored values are read in
        one hold of the lock; readers run after it is released, so a reader
        may take its owner's locks.
        """
        metrics = []
        deferred = []
        with self.lock:
            for family in self._families.values():
                for child in family.children.values():
                    entry: dict = {
                        "name": family.name,
                        "kind": family.kind,
                        "help": family.help,
                        "labels": {**child.labels, **(labels or {})},
                    }
                    if family.kind == "histogram":
                        entry["bounds"] = list(child.bounds)
                        entry["counts"] = list(child._counts)
                        entry["sum"] = child.sum
                        entry["count"] = child.count
                    elif child._fn is None:
                        entry["value"] = child._value
                    else:
                        deferred.append((entry, child._fn))
                    if family.kind == "gauge":
                        entry["aggregation"] = child.aggregation
                    metrics.append(entry)
        for entry, fn in deferred:
            entry["value"] = fn()
        # Histograms carry no "value"; a reader that returned None is left out.
        metrics = [entry for entry in metrics if entry.get("value", 0) is not None]
        for reader in self._readers:
            for entry in reader():
                if labels:
                    entry["labels"] = {**entry["labels"], **labels}
                metrics.append(entry)
        return {"metrics": metrics}


def gauge_entries(
    name: str,
    help: str,
    data,
    labels: "dict[str, str] | None" = None,
    aggregation: str = "sum",
) -> list[dict]:
    """Snapshot entries for a reader: ``data`` as gauge ``name``, or every
    numeric leaf of a nested dict ``data`` as gauge ``name_key`` (bools as
    0/1; NaN and non-numbers left out)."""
    if isinstance(data, dict):
        return [
            entry
            for key, value in data.items()
            for entry in gauge_entries(f"{name}_{key}", help, value, labels, aggregation)
        ]
    if isinstance(data, bool):
        data = int(data)
    if not isinstance(data, (int, float)) or data != data:
        return []
    return [
        {
            "name": name,
            "kind": "gauge",
            "help": help,
            "labels": dict(labels or {}),
            "value": data,
            "aggregation": aggregation,
        }
    ]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_text(labels: dict, extra: "dict | None" = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = ", ".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in sorted(merged.items())
    )
    return "{" + parts + "}"


def _number(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_snapshot(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text."""
    by_family: dict[str, list[dict]] = {}
    meta: dict[str, tuple[str, str]] = {}
    for entry in snapshot.get("metrics", []):
        by_family.setdefault(entry["name"], []).append(entry)
        meta.setdefault(entry["name"], (entry["kind"], entry.get("help", "")))
    lines: list[str] = []
    for name in sorted(by_family):
        kind, help_text = meta[name]
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in by_family[name]:
            labels = entry.get("labels", {})
            if kind == "histogram":
                cumulative = 0
                for bound, count in zip(entry["bounds"], entry["counts"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_text(labels, {'le': _number(bound)})}"
                        f" {cumulative}"
                    )
                cumulative += entry["counts"][len(entry["bounds"])]
                lines.append(
                    f"{name}_bucket{_label_text(labels, {'le': '+Inf'})}"
                    f" {cumulative}"
                )
                lines.append(
                    f"{name}_sum{_label_text(labels)} {_number(entry['sum'])}"
                )
                lines.append(
                    f"{name}_count{_label_text(labels)} {entry['count']}"
                )
            else:
                lines.append(
                    f"{name}{_label_text(labels)} {_number(entry['value'])}"
                )
    return "\n".join(lines) + "\n"


def merge_snapshots(snapshots: "list[dict]") -> dict:
    """Fold worker snapshots into one fleet view.

    Counters sum; histograms merge element-wise (same fixed bounds required —
    mismatched bounds keep the first seen and drop the stray, which cannot
    happen between same-code workers); gauges follow their declared
    aggregation (``sum``/``max``/``min``/``mean``/``last``), except a ratio
    (:data:`_RATIOS`), which is re-derived from the merged series.
    """
    merged: dict[tuple, dict] = {}
    mean_counts: dict[tuple, int] = {}
    for snapshot in snapshots:
        for entry in snapshot.get("metrics", []):
            key = (entry["name"], _labels_key(entry.get("labels")))
            seen = merged.get(key)
            if seen is None:
                copied = dict(entry)
                copied["labels"] = dict(entry.get("labels", {}))
                if entry["kind"] == "histogram":
                    copied["bounds"] = list(entry["bounds"])
                    copied["counts"] = list(entry["counts"])
                merged[key] = copied
                mean_counts[key] = 1
                continue
            if seen["kind"] != entry["kind"]:
                continue
            if entry["kind"] == "counter":
                seen["value"] += entry["value"]
            elif entry["kind"] == "histogram":
                if list(entry["bounds"]) != seen["bounds"]:
                    continue
                seen["counts"] = [
                    a + b for a, b in zip(seen["counts"], entry["counts"])
                ]
                seen["sum"] += entry["sum"]
                seen["count"] += entry["count"]
            else:  # gauge
                mode = seen.get("aggregation", "sum")
                if mode == "sum":
                    seen["value"] += entry["value"]
                elif mode == "max":
                    seen["value"] = max(seen["value"], entry["value"])
                elif mode == "min":
                    seen["value"] = min(seen["value"], entry["value"])
                elif mode == "mean":
                    count = mean_counts[key]
                    seen["value"] = (
                        seen["value"] * count + entry["value"]
                    ) / (count + 1)
                else:  # last
                    seen["value"] = entry["value"]
            mean_counts[key] += 1

    def merged_value(name: str, labels: tuple) -> float:
        return merged.get((name, labels), {}).get("value", 0)

    for (name, labels), entry in merged.items():
        if name in _RATIOS:
            numerator, denominators = _RATIOS[name]
            denominator = sum(merged_value(series, labels) for series in denominators)
            entry["value"] = (
                merged_value(numerator, labels) / denominator if denominator else 0.0
            )
    return {"metrics": list(merged.values())}
