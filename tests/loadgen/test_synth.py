"""Trace synthesis: registry wiring, determinism, statistical properties.

The property tests pin the synthesis contract across 25 seeds: requested
mean rate, coefficient of variation and tail index are hit within tolerance.
Tolerances are loose enough for finite-sample noise of heavy-tailed draws
but tight enough to catch a broken modulator or an off-by-one in the
unit-mean normalisation.
"""

from __future__ import annotations

import math
import statistics

import pytest

from repro.loadgen.synth import synthesize_trace
from repro.loadgen.validate import hill_tail_index
from repro.registry import TRACE_SOURCES, UnknownComponentError

SEEDS = list(range(25))


class TestRegistry:
    def test_builtin_sources_registered(self):
        assert {"azure_faas", "pareto_burst", "lognormal_diurnal"} <= set(
            TRACE_SOURCES.names()
        )

    def test_aliases_resolve(self):
        assert TRACE_SOURCES.canonical_name("faas") == "azure_faas"
        assert TRACE_SOURCES.canonical_name("azure") == "azure_faas"

    def test_unknown_source_suggests_close_matches(self):
        with pytest.raises(UnknownComponentError, match="azure_faas"):
            TRACE_SOURCES.create("azure_fas")


class TestDeterminism:
    @pytest.mark.parametrize("source", ["azure_faas", "pareto_burst", "lognormal_diurnal"])
    def test_same_seed_is_byte_identical(self, source):
        options = dict(seed=9, horizon_us=50_000.0, num_tenants=3,
                       mean_interarrival_us=500.0)
        first = synthesize_trace(source, **options)
        second = synthesize_trace(source, **options)
        assert first.to_jsonl() == second.to_jsonl()

    def test_different_seeds_differ(self):
        a = synthesize_trace("azure_faas", seed=1, horizon_us=50_000.0)
        b = synthesize_trace("azure_faas", seed=2, horizon_us=50_000.0)
        assert a.to_jsonl() != b.to_jsonl()

    def test_params_allow_regeneration(self):
        trace = synthesize_trace("pareto_burst", seed=4, horizon_us=30_000.0)
        again = TRACE_SOURCES.create(trace.source, **{
            k: trace.params[k]
            for k in ("seed", "horizon_us", "num_tenants", "mean_interarrival_us",
                      "tail_alpha", "burstiness", "burst_duty")
        }).build()
        assert again.to_jsonl() == trace.to_jsonl()


class TestTraceShape:
    def test_priorities_ride_into_tenants(self):
        trace = synthesize_trace(
            "azure_faas", seed=2, horizon_us=20_000.0, num_tenants=3,
            high_priority_tenants=2, high_priority=7,
        )
        assert [t.priority for t in trace.tenants] == [7, 7, 0]

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError, match="tail_alpha"):
            synthesize_trace("pareto_burst", tail_alpha=1.0)
        with pytest.raises(ValueError, match="burst_duty"):
            synthesize_trace("pareto_burst", burstiness=20.0, burst_duty=0.5)
        with pytest.raises(ValueError, match="horizon_us"):
            synthesize_trace("azure_faas", horizon_us=0.0)

    #: Every numeric option.  Checks like ``x <= 0`` once let NaN through: a
    #: NaN ``size_sigma`` floored every request size at 0.05, and a NaN
    #: ``mean_interarrival_us`` or ``horizon_us`` spun ~15 s until the
    #: per-tenant arrival bound raised.
    NUMERIC_OPTIONS = (
        "horizon_us", "num_tenants", "mean_interarrival_us", "rate_skew", "tail_alpha",
        "sigma", "burstiness", "burst_duty", "burst_epoch_us", "diurnal_depth",
        "diurnal_period_us", "size_sigma", "high_priority_tenants",
    )

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf), ids=repr)
    @pytest.mark.parametrize("option", NUMERIC_OPTIONS)
    @pytest.mark.parametrize("source", ("azure_faas", "pareto_burst", "lognormal_diurnal"))
    def test_non_finite_option_is_rejected_naming_it(self, source, option, value):
        with pytest.raises(ValueError, match=f"^{option} must be"):
            synthesize_trace(source, **{option: value})


class TestProperties:
    """25-seed statistical contracts (mean rate, CV, tail index)."""

    HORIZON = 300_000.0
    MEAN_GAP = 150.0

    def _gaps(self, source, seed, **options):
        trace = synthesize_trace(
            source, seed=seed, horizon_us=self.HORIZON, num_tenants=2,
            mean_interarrival_us=self.MEAN_GAP, **options,
        )
        return trace, trace.pooled_gaps_us()

    def test_mean_rate_within_tolerance_across_seeds(self):
        ratios = []
        target = 2 / self.MEAN_GAP
        for seed in SEEDS:
            trace, _ = self._gaps(
                "pareto_burst", seed, burstiness=1.0, size_sigma=0.0
            )
            ratio = trace.mean_rate_per_us() / target
            assert 0.85 < ratio < 1.15, f"seed {seed}: rate ratio {ratio:.3f}"
            ratios.append(ratio)
        assert abs(statistics.fmean(ratios) - 1.0) < 0.05

    def test_cv_within_tolerance_across_seeds(self):
        sigma = 0.8
        expected = math.sqrt(math.exp(sigma * sigma) - 1.0)
        errors = []
        for seed in SEEDS:
            _, gaps = self._gaps(
                "lognormal_diurnal", seed, sigma=sigma, diurnal_depth=0.0,
                size_sigma=0.0,
            )
            mean = statistics.fmean(gaps)
            cv = statistics.pstdev(gaps) / mean
            rel = abs(cv - expected) / expected
            assert rel < 0.25, f"seed {seed}: CV {cv:.3f} vs {expected:.3f}"
            errors.append(rel)
        assert statistics.fmean(errors) < 0.10

    def test_tail_index_within_tolerance_across_seeds(self):
        alpha = 2.5
        errors = []
        for seed in SEEDS:
            _, gaps = self._gaps(
                "pareto_burst", seed, burstiness=1.0, tail_alpha=alpha,
                size_sigma=0.0,
            )
            estimate = hill_tail_index(gaps)
            rel = abs(estimate - alpha) / alpha
            assert rel < 0.35, f"seed {seed}: tail {estimate:.3f} vs {alpha}"
            errors.append(rel)
        assert statistics.fmean(errors) < 0.15

    def test_burst_epochs_raise_cv_above_poisson(self):
        # The MMPP modulator must make streams visibly burstier than their
        # burst-free siblings — that is its whole point.
        for seed in SEEDS[:5]:
            _, bursty = self._gaps("pareto_burst", seed, burstiness=6.0,
                                   burst_duty=0.1)
            _, calm = self._gaps("pareto_burst", seed, burstiness=1.0)
            cv_bursty = statistics.pstdev(bursty) / statistics.fmean(bursty)
            cv_calm = statistics.pstdev(calm) / statistics.fmean(calm)
            assert cv_bursty > cv_calm
