"""O(1)-memory metric primitives: counters, gauges, log-bucketed histograms.

Every metric is a plain ``__slots__`` object holding JSON-native numbers, so
a :class:`MetricsRegistry` can ``state()``/``restore()`` itself through the
same JSON round-trip the serving checkpoints use (see
:meth:`repro.serving.driver.ServingDriver.checkpoint`).  Nothing here touches
the simulation: metrics only *record* values handed to them, which is what
keeps runs byte-identical with observability on or off.

The histogram uses geometric (log-spaced) buckets so that a stream of any
length is summarised in a handful of integers per decade of dynamic range.
Quantile estimates return the upper edge of the bucket holding the exact
nearest-rank sample, so the estimate is always within one bucket width of the
true value (``tests/obs/test_metrics_registry.py`` property-checks this with
hypothesis).
"""

from __future__ import annotations

import math

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.utils import restored_count


class MetricTypeError(TypeError):
    """Raised when a registry name is reused with a different metric type."""


class CounterMetric:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def set(self, value: float) -> None:
        """Set an absolute value (used when mirroring an external counter)."""
        self.value = value

    def state(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def restore(self, state: Mapping[str, Any]) -> None:
        self.value = state["value"]

    def snapshot_items(self) -> Iterable[Tuple[str, float]]:
        yield self.name, self.value


class GaugeMetric:
    """A point-in-time value (queue depth, busy fraction, heap size...)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def state(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def restore(self, state: Mapping[str, Any]) -> None:
        self.value = state["value"]

    def snapshot_items(self) -> Iterable[Tuple[str, float]]:
        yield self.name, self.value


class LogHistogram:
    """A log-bucketed histogram over non-negative samples.

    A positive sample ``v`` lands in the bucket with integer index ``i`` such
    that ``growth**(i-1) < v <= growth**i``; zeros are counted separately.
    Memory is O(log(max/min)) regardless of stream length.  The bucket index
    is computed from ``math.log`` and then *corrected* by comparison against
    the exact power, so float rounding can never misplace a sample.
    """

    __slots__ = (
        "name",
        "growth",
        "count",
        "total",
        "zero_count",
        "min_value",
        "max_value",
        "_buckets",
    )

    kind = "histogram"

    #: Quantiles expanded into registry snapshots.
    SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99)

    def __init__(self, name: str, growth: float = 2.0):
        if not growth > 1.0:
            raise ValueError(f"histogram growth must be > 1 (got {growth})")
        self.name = name
        self.growth = float(growth)
        self.count = 0
        self.total = 0.0
        self.zero_count = 0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None
        #: bucket index -> sample count (sparse; only touched buckets exist).
        self._buckets: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ValueError(f"histogram {self.name!r} takes non-negative samples")
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if value == 0.0:
            self.zero_count += 1
            return
        index = self.bucket_index(value)
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    def bucket_index(self, value: float) -> int:
        """Index ``i`` with ``growth**(i-1) < value <= growth**i`` (value > 0)."""
        index = math.ceil(math.log(value) / math.log(self.growth))
        # log() rounding can land one bucket off either way; fix by comparing
        # against the exact powers.
        while self.growth ** index < value:
            index += 1
        while self.growth ** (index - 1) >= value:
            index -= 1
        return index

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """(exclusive lower, inclusive upper) edges of bucket ``index``."""
        return self.growth ** (index - 1), self.growth ** index

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile estimate (bucket upper edge; 0.0 for zeros).

        Returns ``None`` on an empty histogram.  The estimate is the upper
        edge of the bucket containing the exact nearest-rank sample, so it
        never undershoots and overshoots by at most one bucket width.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1] (got {q})")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero_count:
            return 0.0
        cumulative = self.zero_count
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                return self.growth ** index
        return self.growth ** max(self._buckets)  # pragma: no cover - defensive

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "growth": self.growth,
            "count": self.count,
            "total": self.total,
            "zero_count": self.zero_count,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "buckets": {str(index): count for index, count in sorted(self._buckets.items())},
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Resume from :meth:`state` output; a growth of at most 1 or counts
        that are negative or do not add up raise a :class:`ValueError`."""
        growth = float(state["growth"])
        if not growth > 1.0:
            raise ValueError(f"histogram {self.name!r} growth must be > 1, not {growth!r}")
        count = restored_count(state, "count")
        zero_count = restored_count(state, "zero_count")
        buckets = state["buckets"]
        buckets = {int(index): restored_count(buckets, index) for index in buckets}
        if count != zero_count + sum(buckets.values()):
            raise ValueError(
                f"histogram {self.name!r} count {count} is not zero_count plus the bucket counts"
            )
        self.growth = growth
        self.count = count
        self.total = state["total"]
        self.zero_count = zero_count
        self.min_value = state["min_value"]
        self.max_value = state["max_value"]
        self._buckets = buckets

    def snapshot_items(self) -> Iterable[Tuple[str, float]]:
        yield f"{self.name}.count", self.count
        yield f"{self.name}.sum", self.total
        if self.count:
            yield f"{self.name}.min", self.min_value
            yield f"{self.name}.max", self.max_value
            for q in self.SNAPSHOT_QUANTILES:
                yield f"{self.name}.p{int(q * 100)}", self.quantile(q)


_METRIC_TYPES = {
    CounterMetric.kind: CounterMetric,
    GaugeMetric.kind: GaugeMetric,
    LogHistogram.kind: LogHistogram,
}


class MetricsRegistry:
    """A flat, name-keyed registry of metrics.

    ``counter``/``gauge``/``histogram`` create-or-return metrics by name;
    reusing a name with a different type raises :class:`MetricTypeError`.
    :meth:`snapshot` flattens everything into one sorted ``{name: number}``
    mapping — the unit the snapshot exporters and the hub's time-series rows
    are built from — and :meth:`state`/:meth:`restore` round-trip the full
    registry through JSON for checkpoint/resume.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------
    def _get(self, name: str, kind: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
            return metric
        if metric.kind != kind:
            raise MetricTypeError(
                f"metric {name!r} already registered as {metric.kind} (wanted {kind})"
            )
        return metric

    def counter(self, name: str) -> CounterMetric:
        return self._get(name, "counter", lambda: CounterMetric(name))

    def gauge(self, name: str) -> GaugeMetric:
        return self._get(name, "gauge", lambda: GaugeMetric(name))

    def histogram(self, name: str, growth: float = 2.0) -> LogHistogram:
        return self._get(name, "histogram", lambda: LogHistogram(name, growth))

    def get(self, name: str):
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def metrics(self) -> Dict[str, Any]:
        """Name -> metric mapping (insertion order)."""
        return dict(self._metrics)

    # ------------------------------------------------------------------
    # Snapshots / serialisation
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """All metric values flattened into one sorted mapping."""
        items: Dict[str, float] = {}
        for metric in self._metrics.values():
            for key, value in metric.snapshot_items():
                items[key] = value
        return dict(sorted(items.items()))

    def state(self) -> Dict[str, Any]:
        return {name: metric.state() for name, metric in sorted(self._metrics.items())}

    def restore(self, state: Mapping[str, Any]) -> None:
        """Rebuild metric values from :meth:`state` output (merging by name)."""
        for name, metric_state in state.items():
            kind = metric_state["kind"]
            metric_cls = _METRIC_TYPES.get(kind)
            if metric_cls is None:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            metric = self._metrics.get(name)
            if metric is None:
                if metric_cls is LogHistogram:
                    metric = LogHistogram(name, float(metric_state["growth"]))
                else:
                    metric = metric_cls(name)
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise MetricTypeError(
                    f"cannot restore {kind} state into {metric.kind} metric {name!r}"
                )
            metric.restore(metric_state)


__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "LogHistogram",
    "MetricsRegistry",
    "MetricTypeError",
]
