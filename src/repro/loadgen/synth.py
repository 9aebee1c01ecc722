"""Seed-deterministic workload-trace synthesis (the "millions of users" model).

Every synthesizer here is a *trace source*: a registered component
(:data:`repro.registry.TRACE_SOURCES`, :func:`repro.registry.register_trace_source`)
whose :meth:`~TraceSource.build` derives a complete
:class:`~repro.loadgen.trace.WorkloadTrace` from an integer seed.  All draws
go through :func:`repro.utils.determinism.hash_uniform` with key-addressed
components (seed, purpose, tenant, index) — never sequential RNG state — so
the same ``(source, seed, options)`` always yields byte-identical trace JSONL
on every platform, the reproducibility contract the rest of the repo's
generators follow.

The synthesis model layers three effects the FaaS-trace literature (e.g. the
Azure Functions 2019 dataset) reports for production request streams:

* **heavy-tailed interarrival gaps** — unit-mean Pareto or lognormal draws
  set the tail (``tail_alpha`` / ``sigma``);
* **bursty per-tenant streams** — an MMPP-style two-state modulator walks
  alternating burst/calm epochs in *time*; while bursting, the tenant's
  instantaneous rate is multiplied by ``burstiness``, and the calm-state rate
  is chosen so the long-run average rate still matches the request;
* **diurnal rate envelopes** — a sinusoidal multiplier with per-tenant phase
  models the day/night cycle compressed into the simulated horizon.

Tenant rates themselves are skewed (``rate_skew``): a Zipf-like weight makes
a few tenants hot and the rest cold, which is how "millions of users" behind
a handful of services actually load a shared GPU.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from repro.loadgen.trace import TraceTenant, WorkloadTrace
from repro.registry import TRACE_SOURCES, register_trace_source
from repro.utils.determinism import hash_uniform

#: Namespace component so loadgen draws never collide with other users of
#: :func:`hash_uniform` (serving arrivals, the scenario fuzzer, ...).
_NS = "repro.loadgen.synth"

#: Hard per-tenant arrival bound — a misconfigured rate/horizon pair fails
#: loudly instead of materialising an unbounded trace in memory.
MAX_ARRIVALS_PER_TENANT = 1_000_000


def _u(seed: int, *key) -> float:
    """Deterministic uniform sample in [0, 1) for (seed, key)."""
    return hash_uniform(_NS, seed, *key)


class TraceSource:
    """Base class: a seed-deterministic workload-trace synthesizer.

    Subclasses configure the tail distribution and the modulation knobs;
    the arrival walk itself is shared.  Every parameter is recorded in the
    trace's ``params`` mapping, so a trace file alone identifies exactly how
    to regenerate it.
    """

    name = "base"

    def __init__(
        self,
        *,
        seed: int = 0,
        horizon_us: float = 100_000.0,
        num_tenants: int = 4,
        mean_interarrival_us: float = 500.0,
        rate_skew: float = 0.0,
        tail_alpha: float = 2.2,
        sigma: float = 0.8,
        burstiness: float = 1.0,
        burst_duty: float = 0.1,
        burst_epoch_us: float = 0.0,
        diurnal_depth: float = 0.0,
        diurnal_period_us: float = 0.0,
        size_sigma: float = 0.35,
        high_priority_tenants: int = 0,
        high_priority: int = 10,
    ):
        # Range checks read ``not lo < x < inf`` so that NaN fails them too.
        if not 0 < horizon_us < math.inf:
            raise ValueError("horizon_us must be positive and finite")
        if not 1 <= num_tenants < math.inf:
            raise ValueError("num_tenants must be finite and at least 1")
        if not 0 < mean_interarrival_us < math.inf:
            raise ValueError("mean_interarrival_us must be positive and finite")
        if not 0 <= rate_skew < math.inf:
            raise ValueError("rate_skew must be finite and non-negative")
        if not 1.0 < tail_alpha < math.inf:
            raise ValueError("tail_alpha must be finite and > 1 (finite mean)")
        if not 0 < sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not 1.0 <= burstiness < math.inf:
            raise ValueError("burstiness must be finite and >= 1")
        if not 0.0 < burst_duty < 1.0:
            raise ValueError("burst_duty must be in (0, 1)")
        if burstiness > 1.0 and burst_duty * burstiness >= 1.0:
            raise ValueError(
                "burst_duty * burstiness must stay below 1 so the calm-state "
                "rate that preserves the mean stays positive"
            )
        if not 0.0 <= diurnal_depth < 1.0:
            raise ValueError("diurnal_depth must be in [0, 1)")
        if not 0 <= burst_epoch_us < math.inf:
            raise ValueError("burst_epoch_us must be finite and non-negative")
        if not 0 <= diurnal_period_us < math.inf:
            raise ValueError("diurnal_period_us must be finite and non-negative")
        if not 0 <= size_sigma < math.inf:
            raise ValueError("size_sigma must be finite and non-negative")
        if not 0 <= high_priority_tenants <= num_tenants:
            raise ValueError("high_priority_tenants must be in [0, num_tenants]")
        self.seed = int(seed)
        self.horizon_us = float(horizon_us)
        self.num_tenants = int(num_tenants)
        self.mean_interarrival_us = float(mean_interarrival_us)
        self.rate_skew = float(rate_skew)
        self.tail_alpha = float(tail_alpha)
        self.sigma = float(sigma)
        self.burstiness = float(burstiness)
        self.burst_duty = float(burst_duty)
        #: Mean burst/calm cycle length (µs); 0 = a tenth of the horizon.
        self.burst_epoch_us = float(burst_epoch_us) or self.horizon_us / 10.0
        self.diurnal_depth = float(diurnal_depth)
        #: Diurnal period (µs); 0 = half the horizon (two "days" per trace).
        self.diurnal_period_us = float(diurnal_period_us) or self.horizon_us / 2.0
        self.size_sigma = float(size_sigma)
        self.high_priority_tenants = int(high_priority_tenants)
        self.high_priority = int(high_priority)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _unit_gap(self, tenant: int, index: int) -> float:
        """A unit-mean interarrival draw for request ``index`` of ``tenant``."""
        raise NotImplementedError

    def _pareto_unit_gap(self, tenant: int, index: int) -> float:
        """Unit-mean Pareto draw with tail index :attr:`tail_alpha`."""
        u = _u(self.seed, "gap", tenant, index)
        xm = (self.tail_alpha - 1.0) / self.tail_alpha
        return xm / (1.0 - u) ** (1.0 / self.tail_alpha)

    def _lognormal_unit_gap(self, tenant: int, index: int) -> float:
        """Unit-mean lognormal draw with shape :attr:`sigma`."""
        u1 = max(_u(self.seed, "ln_u1", tenant, index), 1e-12)
        u2 = _u(self.seed, "ln_u2", tenant, index)
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return math.exp(self.sigma * z - self.sigma * self.sigma / 2.0)

    # ------------------------------------------------------------------
    # Rate model
    # ------------------------------------------------------------------
    def tenant_rates_per_us(self) -> List[float]:
        """Per-tenant base arrival rates (requests/µs), Zipf-skewed.

        Weights are ``(t + 1) ** -rate_skew`` normalised so the *aggregate*
        rate is ``num_tenants / mean_interarrival_us`` — skew redistributes
        load across tenants without changing the total offered load.
        """
        weights = [
            (t + 1) ** (-self.rate_skew) for t in range(self.num_tenants)
        ]
        total = sum(weights)
        aggregate = self.num_tenants / self.mean_interarrival_us
        return [aggregate * w / total for w in weights]

    def _envelope(self, tenant: int, t_us: float) -> float:
        """Diurnal rate multiplier at time ``t_us`` (mean 1 over a period)."""
        if self.diurnal_depth == 0.0:
            return 1.0
        phase = _u(self.seed, "phase", tenant)
        return 1.0 + self.diurnal_depth * math.sin(
            2.0 * math.pi * (t_us / self.diurnal_period_us + phase)
        )

    def _burst_rates(self, base_rate: float) -> Tuple[float, float]:
        """(burst-state rate, calm-state rate) preserving the mean rate."""
        if self.burstiness == 1.0:
            return base_rate, base_rate
        on = base_rate * self.burstiness
        off = base_rate * (1.0 - self.burst_duty * self.burstiness) / (
            1.0 - self.burst_duty
        )
        return on, off

    # ------------------------------------------------------------------
    # Synthesis
    # ------------------------------------------------------------------
    def _tenant_stream(
        self, tenant: int, base_rate: float
    ) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Walk one tenant's arrival process to the horizon."""
        rate_on, rate_off = self._burst_rates(base_rate)
        # MMPP-style epoch walk: epoch ``n`` is bursting when even.  Epoch
        # lengths are exponential, keyed per epoch number, with means chosen
        # so the long-run burst-time fraction equals ``burst_duty``.
        epoch = 0
        epoch_end = 0.0
        bursting = False

        def advance_epochs(now_us: float) -> None:
            nonlocal epoch, epoch_end, bursting
            while epoch_end <= now_us:
                bursting = epoch % 2 == 0 and self.burstiness > 1.0
                mean_len = self.burst_epoch_us * (
                    self.burst_duty if bursting else (1.0 - self.burst_duty)
                )
                u = max(_u(self.seed, "epoch", tenant, epoch), 1e-12)
                epoch_end += -mean_len * math.log(u)
                epoch += 1

        arrivals: List[float] = []
        sizes: List[float] = []
        t = 0.0
        index = 0
        while True:
            advance_epochs(t)
            rate = (rate_on if bursting else rate_off) * self._envelope(tenant, t)
            gap = self._unit_gap(tenant, index) / max(rate, 1e-12)
            t += gap
            if t > self.horizon_us:
                break
            arrivals.append(t)
            sizes.append(self._size(tenant, index))
            index += 1
            if index > MAX_ARRIVALS_PER_TENANT:
                raise ValueError(
                    f"tenant {tenant} exceeded {MAX_ARRIVALS_PER_TENANT} "
                    "arrivals; lower the rate or shorten the horizon"
                )
        return tuple(arrivals), tuple(sizes)

    def _size(self, tenant: int, index: int) -> float:
        """A positive request-size sample (unit median, lognormal spread)."""
        if self.size_sigma == 0.0:
            return 1.0
        u1 = max(_u(self.seed, "size_u1", tenant, index), 1e-12)
        u2 = _u(self.seed, "size_u2", tenant, index)
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return max(0.05, math.exp(self.size_sigma * z))

    def params(self) -> Dict[str, Any]:
        """The source options, recorded into the trace for regeneration."""
        return {
            "seed": self.seed,
            "horizon_us": self.horizon_us,
            "num_tenants": self.num_tenants,
            "mean_interarrival_us": self.mean_interarrival_us,
            "rate_skew": self.rate_skew,
            "tail_alpha": self.tail_alpha,
            "sigma": self.sigma,
            "burstiness": self.burstiness,
            "burst_duty": self.burst_duty,
            "burst_epoch_us": self.burst_epoch_us,
            "diurnal_depth": self.diurnal_depth,
            "diurnal_period_us": self.diurnal_period_us,
            "size_sigma": self.size_sigma,
            "high_priority_tenants": self.high_priority_tenants,
            "high_priority": self.high_priority,
        }

    def build(self) -> WorkloadTrace:
        """Synthesize the complete trace."""
        tenants: List[TraceTenant] = []
        for tenant, rate in enumerate(self.tenant_rates_per_us()):
            arrivals, sizes = self._tenant_stream(tenant, rate)
            tenants.append(
                TraceTenant(
                    name=f"t{tenant}",
                    arrivals_us=arrivals,
                    sizes=sizes,
                    priority=(
                        self.high_priority
                        if tenant < self.high_priority_tenants
                        else 0
                    ),
                )
            )
        return WorkloadTrace(
            name=f"{self.name}-s{self.seed}",
            horizon_us=self.horizon_us,
            tenants=tuple(tenants),
            source=self.name,
            params=self.params(),
        )


@register_trace_source(
    "azure_faas",
    "faas",
    "azure",
    description="FaaS-style traffic: Zipf-skewed tenant rates, Pareto tails, "
    "diurnal envelope, MMPP burst epochs",
)
class AzureFaasSource(TraceSource):
    """The flagship source: all three production-traffic effects combined."""

    name = "azure_faas"

    def __init__(self, **options):
        options.setdefault("rate_skew", 1.0)
        options.setdefault("tail_alpha", 2.2)
        options.setdefault("burstiness", 6.0)
        options.setdefault("burst_duty", 0.1)
        options.setdefault("diurnal_depth", 0.4)
        options.setdefault("high_priority_tenants", 1)
        super().__init__(**options)

    def _unit_gap(self, tenant: int, index: int) -> float:
        return self._pareto_unit_gap(tenant, index)


@register_trace_source(
    "pareto_burst",
    description="homogeneous tenants with Pareto-tailed gaps and MMPP burst "
    "epochs (no diurnal envelope)",
)
class ParetoBurstSource(TraceSource):
    """Pure heavy-tail + burst model; the tail-index property-test target."""

    name = "pareto_burst"

    def __init__(self, **options):
        options.setdefault("tail_alpha", 2.5)
        options.setdefault("burstiness", 4.0)
        super().__init__(**options)

    def _unit_gap(self, tenant: int, index: int) -> float:
        return self._pareto_unit_gap(tenant, index)


@register_trace_source(
    "lognormal_diurnal",
    description="lognormal interarrival gaps under a diurnal rate envelope",
)
class LognormalDiurnalSource(TraceSource):
    """Lognormal gaps + day/night envelope; the CV property-test target."""

    name = "lognormal_diurnal"

    def __init__(self, **options):
        options.setdefault("sigma", 0.8)
        options.setdefault("diurnal_depth", 0.5)
        super().__init__(**options)

    def _unit_gap(self, tenant: int, index: int) -> float:
        return self._lognormal_unit_gap(tenant, index)


def synthesize_trace(source: str, **options) -> WorkloadTrace:
    """Build a trace from a registered source by name."""
    return TRACE_SOURCES.create(source, **options).build()


__all__ = [
    "MAX_ARRIVALS_PER_TENANT",
    "TraceSource",
    "AzureFaasSource",
    "ParetoBurstSource",
    "LognormalDiurnalSource",
    "synthesize_trace",
]
