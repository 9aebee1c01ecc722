"""Streaming-metrics tests: P² accuracy property, resumability, windows."""

from __future__ import annotations

import json
import math

import pytest

from repro.serving.metrics import (
    MIN_SERVICE_US,
    QUANTILES,
    P2Quantile,
    ReservoirSampler,
    ServingMetrics,
    SlidingWindow,
)
from repro.utils.determinism import hash_uniform


def _stream(seed: int, count: int, *, heavy: bool = False):
    """A reproducible latency-like sample stream (lognormal-ish)."""
    samples = []
    for i in range(count):
        u1 = max(hash_uniform("test.metrics", seed, "u1", i), 1e-12)
        u2 = hash_uniform("test.metrics", seed, "u2", i)
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        sigma = 1.5 if heavy else 0.6
        samples.append(100.0 * math.exp(sigma * z))
    return samples


def _exact_quantile(samples, q: float) -> float:
    """Exact nearest-rank quantile of a finite sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# P² estimator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q", QUANTILES)
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("heavy", [False, True])
def test_p2_tracks_exact_nearest_rank_quantiles(q, seed, heavy):
    """Property: the P² estimate lands inside a ±0.05 quantile neighborhood.

    Replaying the same samples through the estimator and through an exact
    nearest-rank computation, the streaming estimate must fall between the
    exact quantiles at ``q - 0.05`` and ``q + 0.05`` (clamped to the sample
    range) — a distribution-free accuracy bound for the five-marker sketch.
    """
    samples = _stream(seed, 2000, heavy=heavy)
    estimator = P2Quantile(q)
    for value in samples:
        estimator.add(value)
    low = _exact_quantile(samples, max(0.001, q - 0.05))
    high = _exact_quantile(samples, min(1.0, q + 0.05))
    estimate = estimator.value()
    assert low <= estimate <= high, (
        f"q={q} seed={seed} heavy={heavy}: estimate {estimate} outside "
        f"[{low}, {high}] (exact {_exact_quantile(samples, q)})"
    )


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_p2_is_exact_below_five_samples(count):
    samples = _stream(9, count)
    for q in QUANTILES:
        estimator = P2Quantile(q)
        for value in samples:
            estimator.add(value)
        assert estimator.value() == _exact_quantile(samples, q)
        assert estimator.count == count


def test_p2_empty_stream_reports_zero():
    assert P2Quantile(0.5).value() == 0.0


def test_p2_rejects_degenerate_quantiles():
    for q in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            P2Quantile(q)


@pytest.mark.parametrize("split", [3, 5, 17, 500])
def test_p2_state_round_trip_continues_byte_identically(split):
    samples = _stream(4, 1000)
    reference = P2Quantile(0.95)
    for value in samples:
        reference.add(value)

    prefix = P2Quantile(0.95)
    for value in samples[:split]:
        prefix.add(value)
    resumed = P2Quantile.restore(json.loads(json.dumps(prefix.state())))
    for value in samples[split:]:
        resumed.add(value)
    assert resumed.value() == reference.value()
    assert resumed.state() == reference.state()


# ----------------------------------------------------------------------
# Reservoir sampling
# ----------------------------------------------------------------------
def test_reservoir_keeps_everything_below_capacity():
    sampler = ReservoirSampler(8, seed=1)
    for value in range(5):
        sampler.add(float(value))
    assert sampler.samples() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert sampler.count == 5


def test_reservoir_is_bounded_and_deterministic():
    def fill():
        sampler = ReservoirSampler(16, seed=3)
        for value in _stream(5, 500):
            sampler.add(value)
        return sampler

    a, b = fill(), fill()
    assert len(a.samples()) == 16
    assert a.count == 500
    assert a.samples() == b.samples()


def test_reservoir_state_round_trip_continues_byte_identically():
    samples = _stream(6, 400)
    reference = ReservoirSampler(16, seed=2)
    for value in samples:
        reference.add(value)

    prefix = ReservoirSampler(16, seed=2)
    for value in samples[:150]:
        prefix.add(value)
    resumed = ReservoirSampler.restore(json.loads(json.dumps(prefix.state())))
    for value in samples[150:]:
        resumed.add(value)
    assert resumed.samples() == reference.samples()
    assert resumed.state() == reference.state()


def test_reservoir_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ReservoirSampler(0)


@pytest.mark.parametrize("cls, arg", [(P2Quantile, 0.5), (ReservoirSampler, 8)])
def test_state_restore_rejects_a_boolean_count(cls, arg):
    estimator = cls(arg)
    for value in (3.0, 1.0, 2.0):
        estimator.add(value)
    state = {**json.loads(json.dumps(estimator.state())), "count": True}
    with pytest.raises(ValueError, match="count"):
        cls.restore(state)


# ----------------------------------------------------------------------
# Sliding window
# ----------------------------------------------------------------------
def test_sliding_window_counts_only_the_trailing_window():
    window = SlidingWindow(800.0)  # 8 buckets of 100 µs
    window.record(50.0, 10.0, 1.0)    # expires by t=1000
    window.record(950.0, 30.0, 3.0)   # in window at t=1000
    stats = window.stats(1000.0)
    assert stats["completions"] == 1
    assert stats["mean_latency_us"] == 30.0
    assert stats["antt"] == 3.0
    # The trailing window spans buckets [300, 1100) but only 700 µs of it
    # has elapsed at t=1000 — throughput divides by the elapsed span.
    assert stats["throughput_rps"] == round(1 / 700.0 * 1e6, 3)


def test_sliding_window_prorates_partially_elapsed_newest_bucket():
    """Regression: throughput divided by the full window even though the
    newest bucket had barely started, under-reporting by up to 1/8."""
    window = SlidingWindow(800.0)  # 8 buckets of 100 µs
    for t in (850.0, 950.0, 1010.0):
        window.record(t, 20.0, 2.0)
    # At t=1010 the window covers [300, 1010): a 710 µs elapsed span.
    stats = window.stats(1010.0)
    assert stats["completions"] == 3
    assert stats["throughput_rps"] == round(3 / 710.0 * 1e6, 3)


def test_sliding_window_young_stream_divides_by_stream_age():
    """A stream younger than the window pro-rates by its age, not the
    window length (the old behavior under-reported 4x here)."""
    window = SlidingWindow(800.0)
    window.record(100.0, 10.0, 1.0)
    stats = window.stats(200.0)
    assert stats["completions"] == 1
    assert stats["throughput_rps"] == round(1 / 200.0 * 1e6, 3)


def test_sliding_window_zero_span_reports_zero_throughput():
    window = SlidingWindow(800.0)
    assert window.stats(0.0)["throughput_rps"] == 0.0


def test_sliding_window_aggregates_within_the_window():
    window = SlidingWindow(800.0)
    for t in (300.0, 400.0, 500.0):
        window.record(t, 20.0, 2.0)
    stats = window.stats(500.0)
    assert stats["completions"] == 3
    assert stats["mean_latency_us"] == 20.0
    assert stats["antt"] == 2.0


def test_sliding_window_state_round_trip():
    window = SlidingWindow(400.0)
    for t in (10.0, 120.0, 390.0):
        window.record(t, 5.0, 1.5)
    restored = SlidingWindow.restore(json.loads(json.dumps(window.state())))
    assert restored.stats(400.0) == window.stats(400.0)


def test_sliding_window_rejects_bad_window():
    with pytest.raises(ValueError):
        SlidingWindow(0.0)


# ----------------------------------------------------------------------
# Composed serving metrics
# ----------------------------------------------------------------------
def _record_all(metrics: ServingMetrics, completions) -> None:
    for tenant, arrival, admit, complete in completions:
        metrics.record_completion(
            tenant, arrival_us=arrival, admit_us=admit, complete_us=complete
        )


def test_serving_metrics_discards_warmup_but_counts_it():
    metrics = ServingMetrics(
        tenants={"a#0": 100.0}, warmup_us=500.0, window_us=1000.0
    )
    _record_all(metrics, [
        ("a#0", 100.0, 110.0, 300.0),   # warmup: arrival < 500
        ("a#0", 600.0, 610.0, 650.0),   # measured, within SLO
        ("a#0", 700.0, 710.0, 900.0),   # measured, violates 100 µs SLO
    ])
    summary = metrics.summary(now_us=1000.0)
    assert summary["completed"] == 3
    assert summary["warmup_discarded"] == 1
    assert summary["latency_us"]["count"] == 2
    assert summary["slo_violations_total"] == 1
    assert summary["tenants"]["a#0"]["slo_violations"] == 1


def test_serving_metrics_no_slo_budget_never_violates():
    metrics = ServingMetrics(tenants={"a#0": None}, window_us=1000.0)
    _record_all(metrics, [("a#0", 0.0, 1.0, 50_000.0)])
    summary = metrics.summary(now_us=50_000.0)
    assert summary["slo_violations_total"] == 0
    assert summary["tenants"]["a#0"]["slo_budget_us"] is None


def test_serving_metrics_floors_zero_service_and_counts_it():
    """Regression: a zero-duration kernel silently reported normalized=1.0,
    deflating ANTT; it is now floored at one simulator tick and counted."""
    metrics = ServingMetrics(tenants={"a#0": None}, window_us=1000.0)
    # Service time is zero: admit == complete, 10 µs of queueing latency.
    metrics.record_completion("a#0", arrival_us=0.0, admit_us=10.0, complete_us=10.0)
    assert metrics.zero_service == 1
    stats = metrics.window.stats(10.0)
    assert stats["antt"] == round(10.0 / MIN_SERVICE_US, 3)
    summary = metrics.summary(now_us=10.0)
    assert summary["zero_service"] == 1


def test_serving_metrics_zero_service_counter_survives_state_round_trip():
    metrics = ServingMetrics(tenants={"a#0": None}, window_us=1000.0)
    metrics.record_completion("a#0", arrival_us=0.0, admit_us=5.0, complete_us=5.0)
    restored = ServingMetrics.restore(json.loads(json.dumps(metrics.state())))
    assert restored.zero_service == 1
    assert restored.state() == metrics.state()


def test_serving_metrics_unknown_tenant_rejected():
    metrics = ServingMetrics(tenants={"a#0": None})
    with pytest.raises(KeyError):
        metrics.record_completion("b#1", arrival_us=0, admit_us=0, complete_us=1)


def test_serving_metrics_state_round_trip_is_byte_identical():
    def completions():
        out = []
        for i, latency in enumerate(_stream(8, 300)):
            tenant = "a#0" if i % 3 else "b#1"
            arrival = 10.0 * i
            out.append((tenant, arrival, arrival + 1.0, arrival + 1.0 + latency))
        return out

    reference = ServingMetrics(
        tenants={"a#0": 150.0, "b#1": None}, warmup_us=200.0, window_us=500.0
    )
    _record_all(reference, completions())

    prefix = ServingMetrics(
        tenants={"a#0": 150.0, "b#1": None}, warmup_us=200.0, window_us=500.0
    )
    _record_all(prefix, completions()[:120])
    resumed = ServingMetrics.restore(json.loads(json.dumps(prefix.state())))
    _record_all(resumed, completions()[120:])

    now = 10.0 * 300
    assert json.dumps(resumed.summary(now_us=now), sort_keys=True) == json.dumps(
        reference.summary(now_us=now), sort_keys=True
    )
    assert json.dumps(resumed.state(), sort_keys=True) == json.dumps(
        reference.state(), sort_keys=True
    )
