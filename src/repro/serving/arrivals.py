"""Deterministic open-loop arrival processes (the serving layer's sources).

Every process generates one tenant's request stream as a sequence of
interarrival gaps.  Draws go through :func:`repro.utils.determinism.hash_uniform`
with *key-addressed* components (seed, kind, request index), never through
sequential RNG state, so:

* the same ``(process, seed)`` always yields the same stream, on every
  platform and in every worker process, and
* a stream can be *resumed* from a serialized cursor (:meth:`ArrivalProcess.state`
  / :meth:`ArrivalProcess.restore`) and continue byte-identically — the
  foundation of the serving layer's checkpoint/resume support.

Processes are pluggable through :data:`repro.registry.ARRIVALS`
(:func:`repro.registry.register_arrival`); unknown names raise
:class:`~repro.registry.UnknownComponentError` with close-match suggestions,
exactly like policies and controllers.

>>> from repro.registry import ARRIVALS
>>> proc = ARRIVALS.create("poisson", seed=7, mean_interarrival_us=100.0)
>>> gaps = [proc.next_gap_us() for _ in range(3)]
>>> restored = ARRIVALS.create("poisson", seed=7, mean_interarrival_us=100.0)
>>> [restored.next_gap_us() for _ in range(3)] == gaps
True
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from repro.registry import ARRIVALS, register_arrival
from repro.utils.determinism import hash_uniform

#: Namespace component so arrival draws never collide with other users of
#: :func:`hash_uniform` (e.g. the scenario fuzzer's ``repro.synthetic``).
_NS = "repro.serving.arrivals"

#: Upper bound on a single interarrival gap (µs).  Heavy-tailed processes
#: (Pareto) can draw essentially unbounded gaps; clamping keeps horizons
#: finite without perturbing the bulk of the distribution.
MAX_GAP_US = 10_000_000.0


def _u(seed: int, *key) -> float:
    """Deterministic uniform sample in [0, 1) for (seed, key)."""
    return hash_uniform(_NS, seed, *key)


class ArrivalProcess:
    """Base class: a resumable, deterministic interarrival-gap stream.

    Subclasses implement :meth:`_gap_us` as a pure function of the request
    index (plus any serialized per-stream state), which is what makes the
    cursor in :meth:`state` sufficient to resume the stream exactly.
    """

    name = "base"

    def __init__(self, *, seed: int = 0, mean_interarrival_us: float = 100.0):
        if mean_interarrival_us <= 0:
            raise ValueError("mean_interarrival_us must be positive")
        self.seed = int(seed)
        self.mean_interarrival_us = float(mean_interarrival_us)
        self._index = 0

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------
    def next_gap_us(self) -> float:
        """The next interarrival gap (µs); advances the cursor."""
        gap = min(MAX_GAP_US, max(0.0, self._gap_us(self._index)))
        self._index += 1
        return round(gap, 3)

    def _gap_us(self, index: int) -> float:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpoint/resume
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """JSON-serialisable cursor; restore with :meth:`restore`."""
        return {"index": self._index}

    def restore(self, state: Dict[str, Any]) -> None:
        """Reposition the stream at a cursor produced by :meth:`state`."""
        self._index = int(state["index"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(seed={self.seed}, "
            f"mean={self.mean_interarrival_us}, index={self._index})"
        )


@register_arrival(
    "poisson",
    "exponential",
    description="memoryless Poisson arrivals (exponential interarrival gaps)",
)
class PoissonArrivals(ArrivalProcess):
    """Exponential gaps with the configured mean."""

    name = "poisson"

    def _gap_us(self, index: int) -> float:
        u = _u(self.seed, "gap", index)
        return -self.mean_interarrival_us * math.log(1.0 - u)


@register_arrival(
    "mmpp",
    "bursty",
    "onoff",
    description="bursty on-off modulated Poisson (MMPP-style burst trains)",
)
class MMPPArrivals(ArrivalProcess):
    """Two-state modulated Poisson: dense bursts separated by idle gaps.

    While *on*, gaps are exponential with mean ``mean / burstiness``; while
    *off*, with mean ``mean * burstiness`` — so the process alternates between
    request trains well above the average rate and near-idle stretches.
    State-phase lengths (in requests) are geometric, drawn key-addressed per
    phase number, so the phase schedule is as reproducible as the gaps.
    """

    name = "mmpp"

    def __init__(
        self,
        *,
        seed: int = 0,
        mean_interarrival_us: float = 100.0,
        burstiness: float = 8.0,
        mean_burst_len: int = 12,
        mean_idle_len: int = 3,
    ):
        super().__init__(seed=seed, mean_interarrival_us=mean_interarrival_us)
        if burstiness < 1.0:
            raise ValueError("burstiness must be >= 1")
        if mean_burst_len < 1 or mean_idle_len < 1:
            raise ValueError("phase lengths must be at least 1")
        self.burstiness = float(burstiness)
        self.mean_burst_len = int(mean_burst_len)
        self.mean_idle_len = int(mean_idle_len)
        self._phase = "on"
        self._phase_number = 0
        self._left = self._phase_len("on", 0)

    def _phase_len(self, phase: str, number: int) -> int:
        mean_len = self.mean_burst_len if phase == "on" else self.mean_idle_len
        u = _u(self.seed, "phase_len", number)
        # Geometric with the requested mean (support >= 1).
        return 1 + int(-math.log(1.0 - u) * max(0.0, mean_len - 1))

    def _gap_us(self, index: int) -> float:
        if self._left == 0:
            self._phase = "off" if self._phase == "on" else "on"
            self._phase_number += 1
            self._left = self._phase_len(self._phase, self._phase_number)
        self._left -= 1
        mean = (
            self.mean_interarrival_us / self.burstiness
            if self._phase == "on"
            else self.mean_interarrival_us * self.burstiness
        )
        u = _u(self.seed, "gap", index)
        return -mean * math.log(1.0 - u)

    def state(self) -> Dict[str, Any]:
        return {
            "index": self._index,
            "phase": self._phase,
            "phase_number": self._phase_number,
            "left": self._left,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        super().restore(state)
        self._phase = str(state["phase"])
        self._phase_number = int(state["phase_number"])
        self._left = int(state["left"])


@register_arrival(
    "lognormal",
    description="heavy-tailed lognormal interarrival gaps",
)
class LognormalArrivals(ArrivalProcess):
    """Lognormal gaps; ``sigma`` sets the tail weight, the mean is preserved."""

    name = "lognormal"

    def __init__(
        self,
        *,
        seed: int = 0,
        mean_interarrival_us: float = 100.0,
        sigma: float = 1.0,
    ):
        super().__init__(seed=seed, mean_interarrival_us=mean_interarrival_us)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        # E[exp(mu + sigma Z)] = exp(mu + sigma^2/2) = mean_interarrival_us.
        self._mu = math.log(self.mean_interarrival_us) - self.sigma * self.sigma / 2.0

    def _gap_us(self, index: int) -> float:
        u1 = max(_u(self.seed, "ln_u1", index), 1e-12)
        u2 = _u(self.seed, "ln_u2", index)
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return math.exp(self._mu + self.sigma * z)


@register_arrival(
    "pareto",
    description="heavy-tailed Pareto interarrival gaps (power-law tail)",
)
class ParetoArrivals(ArrivalProcess):
    """Pareto gaps; ``alpha`` > 1 sets the tail index, the mean is preserved."""

    name = "pareto"

    def __init__(
        self,
        *,
        seed: int = 0,
        mean_interarrival_us: float = 100.0,
        alpha: float = 2.5,
    ):
        super().__init__(seed=seed, mean_interarrival_us=mean_interarrival_us)
        if alpha <= 1.0:
            raise ValueError("alpha must be > 1 (finite mean)")
        self.alpha = float(alpha)
        # E[X] = xm * alpha / (alpha - 1) = mean_interarrival_us.
        self._xm = self.mean_interarrival_us * (self.alpha - 1.0) / self.alpha

    def _gap_us(self, index: int) -> float:
        u = _u(self.seed, "gap", index)
        return self._xm / (1.0 - u) ** (1.0 / self.alpha)


@register_arrival(
    "replay",
    "trace",
    description="replay an explicit interarrival-gap list (trace-file source)",
)
class ReplayArrivals(ArrivalProcess):
    """Replays a fixed gap list, wrapping around by default.

    The bridge to trace-file workloads (:mod:`repro.loadgen`): the gaps ride
    through scenario JSON verbatim, so a replayed stream is exactly as
    reproducible and resumable as a synthetic one.

    Exhaustion behavior is explicit: ``wrap=True`` (the default, and the
    behavior replay has always had) cycles the gap list for as long as the
    run asks for arrivals; ``wrap=False`` halts the stream once the list is
    exhausted — every further gap is :data:`MAX_GAP_US`, pushing the next
    arrival past any finite horizon.  Compiled workload traces use
    ``wrap=False`` so a trace's request count is exact.
    """

    name = "replay"

    def __init__(
        self,
        *,
        seed: int = 0,
        mean_interarrival_us: float = 100.0,
        interarrival_us: Optional[Sequence[float]] = None,
        wrap: bool = True,
    ):
        super().__init__(seed=seed, mean_interarrival_us=mean_interarrival_us)
        gaps: List[float] = [float(g) for g in (interarrival_us or [])]
        if not gaps:
            raise ValueError("replay needs a non-empty interarrival_us list")
        if any(g < 0 for g in gaps):
            raise ValueError("interarrival gaps must be non-negative")
        self.gaps = gaps
        self.wrap = bool(wrap)

    def _gap_us(self, index: int) -> float:
        if index >= len(self.gaps) and not self.wrap:
            # Past the end of a non-wrapping trace: push the next arrival
            # beyond any finite horizon.
            return MAX_GAP_US
        return self.gaps[index % len(self.gaps)]

    def state(self) -> Dict[str, Any]:
        return {"index": self._index, "wrap": self.wrap}

    def restore(self, state: Dict[str, Any]) -> None:
        super().restore(state)
        # Pre-wrap checkpoints carry no flag; the constructor value stands.
        if "wrap" in state:
            self.wrap = bool(state["wrap"])


def make_arrival_process(kind: str, **options) -> ArrivalProcess:
    """Instantiate an arrival process by registry name."""
    return ARRIVALS.create(kind, **options)


__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "LognormalArrivals",
    "ParetoArrivals",
    "ReplayArrivals",
    "make_arrival_process",
    "MAX_GAP_US",
]
