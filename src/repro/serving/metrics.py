"""Streaming, O(1)-memory serving metrics (latency quantiles, SLOs, windows).

Open-loop serving runs target million-request horizons, so nothing here may
hold per-request state.  Three estimators cover the ROADMAP's steady-state
reporting needs:

* :class:`P2Quantile` — the P² streaming quantile estimator (Jain &
  Chlamtac, CACM 1985): five markers per tracked quantile, parabolic
  interpolation, O(1) memory and update cost.
* :class:`ReservoirSampler` — fixed-seed Algorithm-R reservoir; randomness
  comes from :func:`repro.utils.determinism.hash_uniform` keyed by the sample
  index, so the kept sample *set* is a pure function of (seed, stream).
* :class:`SlidingWindow` — ring of time buckets giving windowed throughput
  and ANTT without a timestamp log.

:class:`ServingMetrics` composes them per tenant and globally, applies the
warmup-window discard, counts per-tenant SLO violations against configurable
latency budgets, and serializes/restores its entire state
(:meth:`ServingMetrics.state` / :meth:`ServingMetrics.restore`) so a
checkpointed serving run resumes with byte-identical summaries.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional

from repro.utils import restored_count
from repro.utils.determinism import hash_uniform

_NS = "repro.serving.metrics"

#: Quantiles tracked for every latency stream.
QUANTILES = (0.5, 0.95, 0.99)

#: Service-time floor (µs) used when normalizing latency.  The simulator
#: rounds every timestamp to 1 ns (1e-3 µs), so a "zero-duration" kernel
#: really means "faster than one tick"; flooring at the tick keeps the
#: normalized latency finite instead of silently reporting 1.0.
MIN_SERVICE_US = 1e-3


def _round3(value: float) -> float:
    return round(value, 3)


def _restored_floats(values: Any, name: str, size: int) -> List[float]:
    """``values`` as a list of exactly ``size`` floats; any other length
    raises a :class:`ValueError` naming ``name``."""
    floats = [float(v) for v in values]
    if len(floats) != size:
        raise ValueError(f"{name} must hold {size} numbers, not {len(floats)}")
    return floats


# ----------------------------------------------------------------------
# P² streaming quantile estimator
# ----------------------------------------------------------------------
class P2Quantile:
    """One P² marker set estimating the ``q`` quantile of a stream."""

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = float(q)
        self._count = 0
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def add(self, value: float) -> None:
        """Fold one observation into the estimate."""
        value = float(value)
        self._count += 1
        if self._count <= 5:
            self._heights.append(value)
            self._heights.sort()
            if self._count == 5:
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0,
                    1.0 + 2.0 * self.q,
                    1.0 + 4.0 * self.q,
                    3.0 + 2.0 * self.q,
                    5.0,
                ]
            return
        h, n, nd = self._heights, self._positions, self._desired
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = 0
            while value >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            nd[i] += self._increments[i]
        for i in (1, 2, 3):
            d = nd[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                sign = 1.0 if d >= 0 else -1.0
                candidate = self._parabolic(i, sign)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, sign)
                n[i] += sign

    def _parabolic(self, i: int, sign: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + sign / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + sign) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - sign) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, sign: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(sign)
        return h[i] + sign * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def count(self) -> int:
        """Number of folded observations."""
        return self._count

    def value(self) -> float:
        """The current quantile estimate (0.0 before any observation).

        Below five observations the exact small-sample quantile (nearest
        rank) is returned, so short streams report true values.
        """
        if self._count == 0:
            return 0.0
        if self._count < 5:
            rank = max(1, math.ceil(self.q * self._count))
            return self._heights[rank - 1]
        return self._heights[2]

    def state(self) -> Dict[str, Any]:
        """JSON-serialisable estimator state."""
        return {
            "q": self.q,
            "count": self._count,
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
        }

    @classmethod
    def restore(cls, state: Mapping[str, Any]) -> "P2Quantile":
        """Rebuild an estimator from :meth:`state` output.

        The first five observations are kept as heights; the markers'
        positions exist from the fifth on.
        """
        est = cls(state["q"])
        est._count = count = restored_count(state, "count")
        markers = 5 if count >= 5 else 0
        est._heights = _restored_floats(state["heights"], "heights", min(count, 5))
        est._positions = _restored_floats(state["positions"], "positions", markers)
        est._desired = _restored_floats(state["desired"], "desired", markers)
        return est


# ----------------------------------------------------------------------
# Fixed-seed reservoir sampling
# ----------------------------------------------------------------------
class ReservoirSampler:
    """Algorithm-R reservoir with hash-keyed (reproducible) randomness."""

    def __init__(self, capacity: int = 32, *, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.seed = int(seed)
        self._samples: List[float] = []
        self._count = 0

    def add(self, value: float) -> None:
        """Offer one observation to the reservoir."""
        index = self._count
        self._count += 1
        if len(self._samples) < self.capacity:
            self._samples.append(float(value))
            return
        slot = int(hash_uniform(_NS, self.seed, "reservoir", index) * (index + 1))
        if slot < self.capacity:
            self._samples[slot] = float(value)

    @property
    def count(self) -> int:
        """Number of offered observations."""
        return self._count

    def samples(self) -> List[float]:
        """The kept samples, sorted (for stable reporting)."""
        return sorted(self._samples)

    def state(self) -> Dict[str, Any]:
        """JSON-serialisable reservoir state."""
        return {
            "capacity": self.capacity,
            "seed": self.seed,
            "count": self._count,
            "samples": list(self._samples),
        }

    @classmethod
    def restore(cls, state: Mapping[str, Any]) -> "ReservoirSampler":
        """Rebuild a reservoir from :meth:`state` output."""
        sampler = cls(int(state["capacity"]), seed=int(state["seed"]))
        sampler._count = restored_count(state, "count")
        sampler._samples = _restored_floats(
            state["samples"], "samples", min(sampler._count, sampler.capacity)
        )
        return sampler


# ----------------------------------------------------------------------
# Sliding-window throughput / ANTT
# ----------------------------------------------------------------------
class SlidingWindow:
    """Windowed completion stats from a ring of time buckets (O(buckets))."""

    NUM_BUCKETS = 8

    def __init__(self, window_us: float):
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.window_us = float(window_us)
        self._bucket_us = self.window_us / self.NUM_BUCKETS
        #: slot -> [bucket epoch, completions, latency sum, normalized sum]
        self._buckets: List[List[float]] = [
            [-1.0, 0.0, 0.0, 0.0] for _ in range(self.NUM_BUCKETS)
        ]

    def record(self, time_us: float, latency_us: float, normalized: float) -> None:
        """Record one completion at ``time_us``."""
        epoch = float(int(time_us / self._bucket_us))
        bucket = self._buckets[int(epoch) % self.NUM_BUCKETS]
        if bucket[0] != epoch:
            bucket[0] = epoch
            bucket[1] = bucket[2] = bucket[3] = 0.0
        bucket[1] += 1.0
        bucket[2] += latency_us
        bucket[3] += normalized

    def stats(self, now_us: float) -> Dict[str, float]:
        """Throughput (requests/s) and ANTT over the trailing window."""
        newest = int(now_us / self._bucket_us)
        oldest = newest - self.NUM_BUCKETS + 1
        count = latency_sum = norm_sum = 0.0
        for bucket in self._buckets:
            if oldest <= bucket[0] <= newest:
                count += bucket[1]
                latency_sum += bucket[2]
                norm_sum += bucket[3]
        # Pro-rate by the elapsed span: the newest bucket is only partially
        # elapsed, and a stream younger than the window has only lived for
        # ``now_us`` — dividing by the full window under-reports throughput
        # by up to 1/NUM_BUCKETS (more for young streams).
        span_us = min(now_us - oldest * self._bucket_us, now_us)
        throughput = count / span_us * 1e6 if span_us > 0 else 0.0
        return {
            "completions": int(count),
            "throughput_rps": _round3(throughput),
            "mean_latency_us": _round3(latency_sum / count) if count else 0.0,
            "antt": _round3(norm_sum / count) if count else 0.0,
        }

    def state(self) -> Dict[str, Any]:
        """JSON-serialisable window state."""
        return {
            "window_us": self.window_us,
            "buckets": [list(bucket) for bucket in self._buckets],
        }

    @classmethod
    def restore(cls, state: Mapping[str, Any]) -> "SlidingWindow":
        """Rebuild a window from :meth:`state` output."""
        window = cls(float(state["window_us"]))
        buckets = state["buckets"]
        if len(buckets) != cls.NUM_BUCKETS:
            raise ValueError(f"buckets must hold {cls.NUM_BUCKETS} buckets, not {len(buckets)}")
        window._buckets = [_restored_floats(bucket, "buckets", 4) for bucket in buckets]
        return window


# ----------------------------------------------------------------------
# One latency stream (global or per tenant)
# ----------------------------------------------------------------------
class _LatencyStream:
    """Quantile estimators + running moments for one latency stream."""

    def __init__(self) -> None:
        self.quantiles = {q: P2Quantile(q) for q in QUANTILES}
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def add(self, latency_us: float) -> None:
        self.count += 1
        self.sum += latency_us
        self.max = max(self.max, latency_us)
        for estimator in self.quantiles.values():
            estimator.add(latency_us)

    def summary(self) -> Dict[str, Any]:
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": _round3(self.sum / self.count),
            "p50": _round3(self.quantiles[0.5].value()),
            "p95": _round3(self.quantiles[0.95].value()),
            "p99": _round3(self.quantiles[0.99].value()),
            "max": _round3(self.max),
        }

    def state(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "quantiles": {str(q): est.state() for q, est in self.quantiles.items()},
        }

    @classmethod
    def restore(cls, state: Mapping[str, Any]) -> "_LatencyStream":
        stream = cls()
        stream.count = restored_count(state, "count")
        stream.sum = float(state["sum"])
        stream.max = float(state["max"])
        quantiles = {float(q): sub for q, sub in state["quantiles"].items()}
        if sorted(quantiles) != sorted(QUANTILES):
            raise ValueError(f"quantiles must be {list(QUANTILES)}, not {sorted(quantiles)}")
        stream.quantiles = {q: P2Quantile.restore(sub) for q, sub in quantiles.items()}
        return stream


# ----------------------------------------------------------------------
# The composed serving metrics
# ----------------------------------------------------------------------
class ServingMetrics:
    """Warmup-discarded latency/SLO/throughput metrics of one serving run."""

    def __init__(
        self,
        *,
        tenants: Mapping[str, Optional[float]],
        warmup_us: float = 0.0,
        window_us: float = 1000.0,
        seed: int = 0,
        reservoir_capacity: int = 32,
    ):
        if warmup_us < 0:
            raise ValueError("warmup_us must be non-negative")
        #: Tenant name -> SLO latency budget in µs (``None`` = no budget).
        self.slo_budgets_us: Dict[str, Optional[float]] = {
            name: (float(budget) if budget is not None else None)
            for name, budget in tenants.items()
        }
        self.warmup_us = float(warmup_us)
        self.seed = int(seed)
        self.global_stream = _LatencyStream()
        self.tenant_streams: Dict[str, _LatencyStream] = {
            name: _LatencyStream() for name in self.slo_budgets_us
        }
        self.slo_violations: Dict[str, int] = {name: 0 for name in self.slo_budgets_us}
        self.reservoir = ReservoirSampler(reservoir_capacity, seed=seed)
        self.window = SlidingWindow(window_us)
        self.warmup_discarded = 0
        self.completed = 0
        #: Completions whose service time was below one simulator tick and
        #: was floored at :data:`MIN_SERVICE_US` for normalization.
        self.zero_service = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_completion(
        self, tenant: str, *, arrival_us: float, admit_us: float, complete_us: float
    ) -> None:
        """Fold one completed request into the metrics.

        ``latency`` is request sojourn time (complete − arrival); the
        ANTT-style *normalized* latency divides by the request's own service
        time (complete − admit), the serving analogue of the paper's
        normalized turnaround time.  Sub-tick service times are floored at
        :data:`MIN_SERVICE_US` and counted in ``zero_service``.
        """
        if tenant not in self.tenant_streams:
            raise KeyError(f"unknown tenant {tenant!r}")
        self.completed += 1
        if arrival_us < self.warmup_us:
            # Warmup-window discard: requests arriving before steady state
            # are counted but never contribute to latency/SLO metrics.
            self.warmup_discarded += 1
            return
        latency = complete_us - arrival_us
        service = complete_us - admit_us
        if service < MIN_SERVICE_US:
            self.zero_service += 1
            service = MIN_SERVICE_US
        normalized = latency / service
        self.global_stream.add(latency)
        self.tenant_streams[tenant].add(latency)
        self.reservoir.add(latency)
        self.window.record(complete_us, latency, normalized)
        budget = self.slo_budgets_us.get(tenant)
        if budget is not None and latency > budget:
            self.slo_violations[tenant] += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self, *, now_us: float) -> Dict[str, Any]:
        """JSON-serialisable metrics snapshot at simulation time ``now_us``."""
        measured_us = max(0.0, now_us - self.warmup_us)
        measured = self.completed - self.warmup_discarded
        throughput = measured / measured_us * 1e6 if measured_us > 0 else 0.0
        tenants = {}
        for name in sorted(self.tenant_streams):
            budget = self.slo_budgets_us[name]
            tenants[name] = {
                "latency_us": self.tenant_streams[name].summary(),
                "slo_budget_us": _round3(budget) if budget is not None else None,
                "slo_violations": self.slo_violations[name],
            }
        return {
            "warmup_us": _round3(self.warmup_us),
            "completed": self.completed,
            "warmup_discarded": self.warmup_discarded,
            "zero_service": self.zero_service,
            "latency_us": self.global_stream.summary(),
            "throughput_rps": _round3(throughput),
            "window": {"window_us": _round3(self.window.window_us), **self.window.stats(now_us)},
            "reservoir": [_round3(v) for v in self.reservoir.samples()],
            "slo_violations_total": sum(self.slo_violations.values()),
            "tenants": tenants,
        }

    # ------------------------------------------------------------------
    # Checkpoint/resume
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Full JSON-serialisable metric state (checkpoint payload)."""
        return {
            "warmup_us": self.warmup_us,
            "seed": self.seed,
            "warmup_discarded": self.warmup_discarded,
            "completed": self.completed,
            "zero_service": self.zero_service,
            "slo_budgets_us": dict(self.slo_budgets_us),
            "slo_violations": dict(self.slo_violations),
            "global": self.global_stream.state(),
            "tenants": {
                name: stream.state() for name, stream in self.tenant_streams.items()
            },
            "reservoir": self.reservoir.state(),
            "window": self.window.state(),
        }

    @classmethod
    def restore(cls, state: Mapping[str, Any]) -> "ServingMetrics":
        """Rebuild the metrics from :meth:`state` output."""
        metrics = cls(
            tenants=state["slo_budgets_us"],
            warmup_us=float(state["warmup_us"]),
            window_us=float(state["window"]["window_us"]),
            seed=int(state["seed"]),
            reservoir_capacity=int(state["reservoir"]["capacity"]),
        )
        metrics.warmup_discarded = restored_count(state, "warmup_discarded")
        metrics.completed = restored_count(state, "completed")
        metrics.zero_service = restored_count(state, "zero_service")
        violations = state["slo_violations"]
        metrics.slo_violations = {
            name: restored_count(violations, name) for name in metrics.slo_violations
        }
        metrics.global_stream = _LatencyStream.restore(state["global"])
        tenants = state["tenants"]
        expected = sorted(metrics.slo_budgets_us)
        if sorted(tenants) != expected:
            raise ValueError(f"tenants {sorted(tenants)} must be the SLO tenants {expected}")
        metrics.tenant_streams = {
            name: _LatencyStream.restore(sub) for name, sub in tenants.items()
        }
        metrics.reservoir = ReservoirSampler.restore(state["reservoir"])
        metrics.window = SlidingWindow.restore(state["window"])
        return metrics


__all__ = [
    "P2Quantile",
    "ReservoirSampler",
    "SlidingWindow",
    "ServingMetrics",
    "QUANTILES",
    "MIN_SERVICE_US",
]
