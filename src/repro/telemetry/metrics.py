"""The unified metrics registry: counters, gauges, histograms, Prometheus text.

Every subsystem's existing dataclass counters (``ServiceMetrics``,
``ExperienceMetrics``, shadow, sharding, cache stats) publish into one
:class:`MetricsRegistry` at *scrape time* — the hot path keeps its cheap
lock-guarded integers and nobody pays registry overhead per request.  Two
consumers read the registry:

- ``GET /metrics`` renders Prometheus text exposition (:meth:`MetricsRegistry.render`);
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

#: Log-spaced latency buckets in seconds (upper bounds; +Inf is implicit).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Valid gauge aggregation modes for fleet merging.
_GAUGE_AGGREGATIONS = frozenset({"sum", "max", "min", "mean", "last"})


def _labels_key(labels: "dict[str, str] | None") -> tuple:
    return tuple(sorted((labels or {}).items()))


class Counter:
    """A monotonically published cumulative count."""

    __slots__ = ("labels", "_value", "_lock")

    def __init__(self, labels: "dict[str, str] | None" = None):
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Publish an externally-accumulated cumulative total (scrape-time)."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value; ``aggregation`` governs fleet merging."""

    __slots__ = ("labels", "aggregation", "_value", "_lock")

    def __init__(
        self, labels: "dict[str, str] | None" = None, aggregation: str = "sum"
    ):
        if aggregation not in _GAUGE_AGGREGATIONS:
            raise ValueError(f"unknown gauge aggregation {aggregation!r}")
        self.labels = dict(labels or {})
        self.aggregation = aggregation
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


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
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
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

    def bucket_counts(self) -> list[int]:
        with self._lock:
            return list(self._counts)


class _Family:
    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help: str):
        self.name = name
        self.kind = kind
        self.help = help
        self.children: dict = {}


class MetricsRegistry:
    """Named metric families with get-or-create semantics.

    Instances are independent (one per gateway) so parallel test servers in
    one process never share counters; the process-global default registry is
    only a convenience for code with no gateway handle.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _get_or_create(self, name: str, kind: str, help: str, labels, factory):
        key = _labels_key(labels)
        with self._lock:
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
                child = factory()
                family.children[key] = child
            return child

    def counter(
        self, name: str, help: str = "", labels: "dict[str, str] | None" = None
    ) -> Counter:
        return self._get_or_create(
            name, "counter", help, labels, lambda: Counter(labels)
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: "dict[str, str] | None" = None,
        aggregation: str = "sum",
    ) -> Gauge:
        return self._get_or_create(
            name, "gauge", help, labels, lambda: Gauge(labels, aggregation)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: "dict[str, str] | None" = None,
        buckets: "tuple[float, ...]" = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, "histogram", help, labels, lambda: Histogram(labels, buckets)
        )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """A JSON-able dump — what sharded workers push to the supervisor."""
        metrics = []
        with self._lock:
            families = list(self._families.values())
        for family in families:
            for child in list(family.children.values()):
                entry: dict = {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "labels": dict(child.labels),
                }
                if family.kind == "histogram":
                    entry["bounds"] = list(child.bounds)
                    entry["counts"] = child.bucket_counts()
                    entry["sum"] = child.sum
                    entry["count"] = child.count
                else:
                    entry["value"] = child.value
                    if family.kind == "gauge":
                        entry["aggregation"] = child.aggregation
                metrics.append(entry)
        return {"metrics": metrics}

    def render(self) -> str:
        """Prometheus text exposition of this registry."""
        return render_snapshot(self.snapshot())


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
    aggregation (``sum``/``max``/``min``/``mean``/``last``).
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
    return {"metrics": list(merged.values())}
