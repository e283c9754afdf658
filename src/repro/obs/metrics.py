"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

The registry hands out *get-or-create* handles keyed by a dotted name
(``serve.requests``, ``exec.cache.hits``), so independent components
accumulate into the same series; :meth:`MetricsRegistry.snapshot` is
the serialized view (the serve ``metrics`` reply, a fuzz report's
``fuzz.*`` counters).

Three metric kinds, mirroring the usual monitoring vocabulary:

* :class:`Counter` -- a monotonically increasing count (``inc``);
* :class:`Gauge` -- a point-in-time value that may move both ways
  (``add``);
* :class:`Histogram` -- observations bucketed against a fixed ascending
  boundary list, with running sum and count.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Sequence, Union

MetricValue = Union[int, float]


class Metric:
    """Base class: a named series."""

    kind = "metric"

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.snapshot()!r})"

    def snapshot(self):  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing integer count.

    ``inc`` enforces monotonicity; only :meth:`MetricsRegistry.merge`
    assigns ``value`` directly, adding another registry's total.
    """

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str):
        super().__init__(name)
        self.value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (by {amount})")
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge(Metric):
    """A point-in-time value that can move in either direction."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self, name: str):
        super().__init__(name)
        self.value: MetricValue = 0

    def add(self, amount: MetricValue) -> None:
        self.value += amount

    def snapshot(self) -> MetricValue:
        return self.value


class Histogram(Metric):
    """Observations bucketed against fixed ascending boundaries.

    Bucket ``i`` counts observations ``<= boundaries[i]``; one implicit
    overflow bucket counts the rest.  Boundaries are fixed at creation,
    so merging and serialization never re-bin.
    """

    kind = "histogram"

    __slots__ = ("boundaries", "bucket_counts", "sum", "count")

    def __init__(self, name: str, boundaries: Sequence[float]):
        super().__init__(name)
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} boundaries must ascend: {bounds}")
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: MetricValue) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation inside the bucket holding the rank, with
        the first bucket anchored at 0 and the overflow bucket clamped
        to the last boundary -- the usual fixed-bucket estimate (what a
        Prometheus ``histogram_quantile`` would report).  Returns 0.0
        for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for boundary, bucket_count in zip(self.boundaries, self.bucket_counts):
            if cumulative + bucket_count >= rank and bucket_count > 0:
                fraction = (rank - cumulative) / bucket_count
                return lower + (boundary - lower) * max(0.0, fraction)
            cumulative += bucket_count
            lower = boundary
        return self.boundaries[-1]

    def snapshot(self) -> Dict[str, object]:
        buckets: Dict[str, int] = {}
        for boundary, count in zip(self.boundaries, self.bucket_counts):
            buckets[f"le={boundary:g}"] = count
        buckets["le=+Inf"] = self.bucket_counts[-1]
        return {"buckets": buckets, "sum": self.sum, "count": self.count}


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by name.

    Asking for an existing series returns the same object; asking for an
    existing name with a different metric *kind* is an error -- a series
    cannot be a counter in one component and a gauge in another.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    # -- handles --------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._get_or_create(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(Gauge, name)

    def histogram(self, name: str, boundaries: Sequence[float]) -> Histogram:
        return self._get_or_create(Histogram, name, boundaries)

    def _get_or_create(self, cls, name: str, *args):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as a {existing.kind}"
                )
            return existing
        metric = cls(name, *args)
        self._metrics[name] = metric
        return metric

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's series into this one.

        Counters and histogram buckets add (histograms must share
        boundaries); gauges take the other registry's latest value.
        Series missing here are created with the same kind.
        """
        for name, metric in other._metrics.items():
            existing = self._metrics.get(name)
            if existing is None:
                if isinstance(metric, Histogram):
                    existing = Histogram(name, metric.boundaries)
                else:
                    existing = type(metric)(name)
                self._metrics[name] = existing
            elif type(existing) is not type(metric):
                raise ValueError(
                    f"cannot merge {metric.kind} {name!r} into"
                    f" a {existing.kind}"
                )
            if isinstance(metric, Counter):
                existing.value += metric.value
            elif isinstance(metric, Gauge):
                existing.value = metric.value
            else:
                if existing.boundaries != metric.boundaries:
                    raise ValueError(
                        f"histogram {name!r} boundary mismatch:"
                        f" {existing.boundaries} vs {metric.boundaries}"
                    )
                existing.bucket_counts = [
                    a + b
                    for a, b in zip(existing.bucket_counts, metric.bucket_counts)
                ]
                existing.sum += metric.sum
                existing.count += metric.count

    # -- serialization --------------------------------------------------

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, object]:
        """Point-in-time ``name -> value`` view, sorted by name and
        optionally filtered to names starting with ``prefix``.

        This is the live-endpoint API (``repro serve``'s ``metrics``
        request): a plain dict decoupled from the metric objects, safe
        to serialize while other threads keep incrementing.
        """
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
            if prefix is None or name.startswith(prefix)
        }

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} series)"
