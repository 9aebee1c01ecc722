"""Preemption controllers: per-request mechanism selection (paper Sec. 3.2).

The paper frames context switching and SM draining as two points on a
latency-vs-overhead tradeoff and argues the hardware could pick between them
*dynamically, per preemption*.  A :class:`PreemptionController` is that
decision point: every time a scheduling policy reserves an SM, the execution
engine builds a :class:`PreemptionRequest` — a snapshot of everything the
hardware would know at that instant (incoming kernel priority, resident
blocks and their progress, estimated drain time, projected context
save/restore cost, an optional latency budget) — and asks the controller
which mechanism should free *this* SM *this* time.

Mechanisms themselves stay the two strategies of Sec. 3.2
(:class:`~repro.core.preemption.context_switch.ContextSwitchMechanism`,
:class:`~repro.core.preemption.draining.DrainingMechanism`); they are
per-SM-keyed and can serve interleaved preemptions on different SMs, so the
engine keeps one bound instance per mechanism name and routes each in-flight
preemption to the instance the controller chose.

Three controllers ship:

* :class:`StaticController` — always the same mechanism; wraps the legacy
  "one mechanism bound at system construction" behaviour and is the
  backward-compatibility path (``SchemeSpec(controller=None)`` resolves to
  it, and its outputs are byte-identical to the pre-controller code).
* :class:`HybridController` — deadline-bounded draining: drain when the
  estimated drain time fits within a budget, fall back to the context
  switch when it does not (or when draining can never finish, e.g.
  persistent kernels with effectively unbounded blocks).
* :class:`AdaptiveController` — cost-model pick: estimates the SM-idle time
  each mechanism would cause (drain = remaining resident execution;
  switch = pipeline drain + save + deferred restore) and takes the minimum.

Custom controllers plug in through :func:`repro.registry.register_controller`
exactly like policies and mechanisms:

>>> from repro.registry import register_controller
>>> from repro.core.preemption.controller import PreemptionController
>>> @register_controller("always_drain", description="demo controller")
... class AlwaysDrain(PreemptionController):
...     name = "always_drain"
...     def select(self, request):
...         return "draining"
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.gpu.config import SystemConfig
from repro.registry import register_controller

#: Default drain deadline of the hybrid controller, µs.  Sized against the
#: paper's Table 1 projected context-save times (~16-20 µs for a fully
#: occupied SM): draining is allowed as long as it is expected to finish
#: within roughly one worst-case save, otherwise the bounded-latency context
#: switch is taken.
DEFAULT_DRAIN_BUDGET_US = 25.0


@dataclass(frozen=True)
class ResidentBlockInfo:
    """Progress snapshot of one thread block resident on the reserved SM."""

    kernel_launch_id: int
    block_index: int
    #: Estimated execution time left on the SM (µs) as of the request.
    estimated_remaining_us: float
    #: Architectural state (registers + shared memory) a save would move.
    state_bytes: int


@dataclass(frozen=True)
class PreemptionRequest:
    """Everything a controller may consult for one preemption decision.

    Estimates are what the hardware could plausibly derive from its tables
    (KSRT/SMST residency, per-kernel resource usage, observed block runtimes);
    they are *estimates*, not oracle values — issue/restore latencies of
    in-flight blocks are not included.
    """

    sm_id: int
    now: float
    #: Resident blocks of the reserved SM (empty for an idle-but-reserved SM).
    resident: Tuple[ResidentBlockInfo, ...]
    #: KSR index of the kernel the SM is reserved for (``None`` = released).
    incoming_ksr_index: Optional[int]
    #: Scheduling priority of the incoming kernel (``None`` when unknown).
    incoming_priority: Optional[int]
    #: Scheduling priority of the kernel currently running on the SM.
    resident_priority: Optional[int]
    #: Estimated time until the SM drains naturally (max resident remaining).
    estimated_drain_us: float
    #: Bytes a context switch would save (sum of resident state).
    save_bytes: int
    #: Time to move ``save_bytes`` off-chip at the per-SM bandwidth share.
    save_time_us: float
    #: Deferred cost of restoring the saved state before re-issue.
    restore_time_us: float
    #: Pipeline-drain latency charged before a context-save trap can start.
    pipeline_drain_us: float
    #: Optional latency budget (``SchedulerConfig.preemption_latency_budget_us``).
    latency_budget_us: Optional[float]
    config: SystemConfig = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    @property
    def resident_blocks(self) -> int:
        """Number of thread blocks resident on the reserved SM."""
        return len(self.resident)

    @property
    def estimated_switch_us(self) -> float:
        """Estimated time until a context switch frees the SM."""
        return self.pipeline_drain_us + self.save_time_us


class PreemptionController(abc.ABC):
    """Per-request mechanism selection policy.

    Controllers are consulted synchronously inside
    :meth:`~repro.gpu.execution_engine.ExecutionEngine.reserve_sm` and must
    not schedule events or mutate simulation state — they only pick a
    mechanism name (a :data:`repro.registry.MECHANISMS` name or alias).

    ``needs_request`` lets request-independent controllers (``static``) skip
    the per-preemption snapshot entirely: the engine passes ``None`` instead
    of building a :class:`PreemptionRequest`, keeping the legacy hot path
    free of bookkeeping it would discard.
    """

    #: Short name used in scheme specs and experiment reports.
    name: str = "abstract"
    #: Whether :meth:`select` reads the request.  When ``False`` the engine
    #: passes ``None`` instead of building one.
    needs_request: bool = True

    def bind(self, host) -> None:
        """Attach the controller to its engine (called once at wiring time).

        The default keeps no reference; controllers that need construction
        defaults from the engine (e.g. :class:`StaticController`) override.
        """

    @abc.abstractmethod
    def select(self, request: Optional[PreemptionRequest]) -> str:
        """Return the mechanism name that should handle ``request``.

        ``request`` is ``None`` only for controllers that declared
        ``needs_request = False``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@register_controller("static", "fixed")
class StaticController(PreemptionController):
    """Always the same mechanism (the legacy behaviour).

    With ``mechanism=None`` (the default) the controller adopts the engine's
    configured default mechanism when it is bound, so
    ``SchemeSpec(mechanism="draining", controller="static")`` preempts by
    draining — an explicit ``static`` wrap always matches the controller-less
    spelling of the same scheme.
    """

    name = "static"
    needs_request = False

    def __init__(self, *, mechanism: Optional[str] = None):
        self.mechanism = mechanism
        #: Engine the default mechanism was adopted from (``None`` when the
        #: mechanism was configured explicitly or the controller is unbound).
        self._adopted_from = None

    def bind(self, host) -> None:
        if self._adopted_from is not None and self._adopted_from is not host:
            # A second engine would silently inherit the first engine's
            # mechanism; refuse instead of producing wrong simulations.
            raise RuntimeError(
                "a StaticController that adopted its mechanism from an engine "
                "cannot be reused with another engine; create one per system "
                "or configure mechanism= explicitly"
            )
        if self.mechanism is None:
            self.mechanism = host.mechanism.name
            self._adopted_from = host

    def select(self, request: Optional[PreemptionRequest]) -> str:
        if self.mechanism is None:
            raise RuntimeError(
                "StaticController has no mechanism: configure one or bind the "
                "controller to an engine first"
            )
        return self.mechanism

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StaticController(mechanism={self.mechanism!r})"


@register_controller("hybrid", "deadline")
class HybridController(PreemptionController):
    """Deadline-bounded draining with a context-switch fallback.

    Drain when the estimated drain time fits within the budget — draining
    moves no state and wastes no work — and fall back to the context switch
    when it does not, bounding the preemption latency near the budget.  The
    budget is resolved in order: the controller's ``drain_budget_us`` option,
    the request's latency budget
    (:attr:`~repro.gpu.config.SchedulerConfig.preemption_latency_budget_us`),
    then :data:`DEFAULT_DRAIN_BUDGET_US`.
    """

    name = "hybrid"

    def __init__(self, *, drain_budget_us: Optional[float] = None):
        if drain_budget_us is not None and drain_budget_us < 0:
            raise ValueError("drain_budget_us must be non-negative")
        self.drain_budget_us = drain_budget_us

    def budget_for(self, request: PreemptionRequest) -> float:
        """The drain deadline applied to one request."""
        if self.drain_budget_us is not None:
            return self.drain_budget_us
        if request.latency_budget_us is not None:
            return request.latency_budget_us
        return DEFAULT_DRAIN_BUDGET_US

    def select(self, request: PreemptionRequest) -> str:
        if request.estimated_drain_us <= self.budget_for(request):
            return "draining"
        return "context_switch"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HybridController(drain_budget_us={self.drain_budget_us!r})"


@register_controller("adaptive", "cost_model")
class AdaptiveController(PreemptionController):
    """Cost-model selection minimizing estimated SM-idle time.

    Draining keeps the SM productive until handover but delays it by the
    remaining resident execution time; a context switch idles the SM for the
    pipeline drain plus the save, and additionally spends the restore time
    re-loading the evicted state before those blocks make progress again.
    The controller picks the mechanism with the lower estimated total,
    scaled by ``switch_bias`` (>1 penalises switching, <1 favours it).
    """

    name = "adaptive"

    def __init__(self, *, switch_bias: float = 1.0):
        if switch_bias <= 0:
            raise ValueError("switch_bias must be positive")
        self.switch_bias = switch_bias

    def costs(self, request: PreemptionRequest) -> Tuple[float, float]:
        """(drain cost, switch cost) in estimated idle-µs for one request."""
        drain_cost = request.estimated_drain_us
        switch_cost = (
            request.estimated_switch_us + request.restore_time_us
        ) * self.switch_bias
        return drain_cost, switch_cost

    def select(self, request: PreemptionRequest) -> str:
        drain_cost, switch_cost = self.costs(request)
        # Ties drain: no state moved, no restore debt incurred.
        if drain_cost <= switch_cost:
            return "draining"
        return "context_switch"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AdaptiveController(switch_bias={self.switch_bias!r})"


def make_controller(name: str, **kwargs) -> PreemptionController:
    """Create a preemption controller by name (thin delegate to the registry)."""
    from repro.registry import CONTROLLERS

    return CONTROLLERS.create(name, **kwargs)


__all__ = [
    "DEFAULT_DRAIN_BUDGET_US",
    "ResidentBlockInfo",
    "PreemptionRequest",
    "PreemptionController",
    "StaticController",
    "HybridController",
    "AdaptiveController",
    "make_controller",
]
