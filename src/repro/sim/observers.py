"""The instrumentation-observer vocabulary, written once.

The simulator and the hardware models (SMs, execution engine, command
dispatcher, host CPU, open-loop request launcher) each expose a single
optional ``observer`` attribute that is notified at instrumentation points.
Observers must only *observe*: validation (:mod:`repro.validation`),
telemetry (:mod:`repro.telemetry`) and runtime metrics (:mod:`repro.obs`)
all rely on a run with observers attached being byte-identical to the same
run without them.

* Each component's hooks are written once, as the no-op methods of one
  *section* class (:class:`SimulatorHooks`, :class:`SMHooks`, ...), and
  :class:`BaseObserver` inherits every section: an observer overrides only
  the hooks it needs, and adding a hook is one method in its component's
  section (plus the call site that fires it).
* :func:`section_observers` wires each component with the observers of its
  own hooks only, so an observer that overrides no SM hook leaves the SMs
  unobserved (and their ``BlockRun`` fast path on).
* :class:`CompositeObserver` fans the hooks out to several observers, with
  forwarders built once from the hooks each child implements, so components
  keep their cheap single ``observer`` attribute.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple


class SimulatorHooks:
    """Hooks of the simulator (:class:`repro.sim.engine.Simulator`)."""

    def on_event_fired(self, event, previous_now) -> None:
        """An event is about to execute (the clock just advanced to it)."""


class SMHooks:
    """Hooks of each streaming multiprocessor (:mod:`repro.gpu.sm`)."""

    def on_sm_configured(self, sm) -> None:
        """An SM finished setup for a kernel."""

    def on_sm_released(self, sm) -> None:
        """An SM was released back to the idle pool."""

    def on_block_started(self, sm, block) -> None:
        """A thread block became resident on ``sm``."""

    def on_block_completed(self, sm, block) -> None:
        """A resident thread block finished execution."""

    def on_blocks_evicted(self, sm, blocks) -> None:
        """Resident blocks were evicted by the context-switch mechanism."""


class ExecutionEngineHooks:
    """Hooks of the execution engine (:mod:`repro.gpu.execution_engine`)."""

    def on_sm_reserved(self, sm, next_ksr_index, mechanism) -> None:
        """The scheduling policy reserved ``sm`` (preemption request).

        ``mechanism`` is the preemption mechanism the engine's controller
        chose for this request (mechanisms are selected per preemption).
        """

    def on_kernel_activated(self, entry) -> None:
        """A buffered kernel command was admitted into the KSRT."""

    def on_preemption_complete(self, sm, evicted_blocks, mechanism) -> None:
        """A preemption mechanism finished freeing ``sm``."""

    def on_kernel_finished(self, launch) -> None:
        """Every thread block of an active kernel completed."""


class DispatcherHooks:
    """Hooks of the command dispatcher (:mod:`repro.gpu.dispatcher`)."""

    def on_command_enqueued(self, queue_id, command) -> None:
        """A command entered a hardware queue."""

    def on_command_issued(self, queue_id, command) -> None:
        """The dispatcher issued a command to an engine."""

    def on_command_completed(self, queue_id, command_id) -> None:
        """An in-flight command completed and re-enabled its queue."""


class CPUHooks:
    """Hooks of the host CPU (:mod:`repro.host.cpu`)."""

    def on_cpu_phase_started(self, duration_us, label) -> None:
        """A CPU phase started executing on a hardware thread."""

    def on_cpu_phase_finished(self, label) -> None:
        """A CPU phase finished and freed its hardware thread."""


class ServingHooks:
    """Hooks of the open-loop request path (:mod:`repro.serving.driver`)."""

    def on_request_arrived(self, request, now) -> None:
        """An open-loop request arrived at the ingress queue."""

    def on_request_admitted(self, request, now) -> None:
        """A queued request was admitted and its kernel launched."""

    def on_request_completed(self, request, now) -> None:
        """An admitted request's kernel completed."""

    def on_request_dropped(self, request, now) -> None:
        """A request was dropped by the admission policy."""


class BaseObserver(
    SimulatorHooks, SMHooks, ExecutionEngineHooks, DispatcherHooks, CPUHooks, ServingHooks
):
    """No-op implementation of every instrumentation hook.

    Subclass and override the hooks you need; each component is wired only
    to the observers that override one of its section's hooks.
    """


#: Hook section -> the names of its hooks, in declaration order.
SECTIONS: Dict[type, Tuple[str, ...]] = {
    section: tuple(name for name in vars(section) if name.startswith("on_"))
    for section in BaseObserver.__bases__
}
#: Every hook name, section by section.
HOOKS: Tuple[str, ...] = sum(SECTIONS.values(), ())


@lru_cache(maxsize=256)
def _class_hooks(cls: type) -> FrozenSet[str]:
    """The hooks ``cls`` overrides (for a duck-typed class: defines)."""
    return frozenset(
        hook for hook in HOOKS
        if getattr(cls, hook, None) not in (None, getattr(BaseObserver, hook))
    )


def implemented_hooks(observer: object) -> FrozenSet[str]:
    """The hooks ``observer`` implements; a composite's are its children's."""
    if isinstance(observer, CompositeObserver):
        return observer.hooks
    return _class_hooks(type(observer))


def _fan_out(methods: List[Callable[..., None]]) -> Callable[..., None]:
    """One hook forwarder calling ``methods`` in order."""

    def forward(*args) -> None:
        for method in methods:
            method(*args)

    return forward


class CompositeObserver(BaseObserver):
    """Forwards each hook to the children that implement it, in order.

    A hook no child implements stays the inherited no-op, a hook one child
    implements is that child's bound method, and a hook several children
    implement calls them in install order.
    """

    def __init__(self, observers: Iterable[object]):
        #: The child observers, in notification order.
        self.observers: List[object] = list(observers)
        methods: Dict[str, List[Callable[..., None]]] = {}
        for observer in self.observers:
            for hook in implemented_hooks(observer):
                methods.setdefault(hook, []).append(getattr(observer, hook))
        #: The hooks at least one child implements.
        self.hooks: FrozenSet[str] = frozenset(methods)
        for hook, bound in methods.items():
            setattr(self, hook, bound[0] if len(bound) == 1 else _fan_out(bound))


def section_observers(observers: Sequence[object]) -> Dict[type, Optional[object]]:
    """The observer each section's component slot holds.

    A slot hears the ``observers`` that override one of its section's hooks:
    none leaves it ``None`` and a lone :class:`BaseObserver` fills it; more
    (or a duck-typed one, which may lack hooks) go through a composite.
    """
    owned = [(observer, implemented_hooks(observer)) for observer in observers]
    slots: Dict[type, Optional[object]] = {}
    for section, hooks in SECTIONS.items():
        chosen = [observer for observer, own in owned if not own.isdisjoint(hooks)]
        if len(chosen) == 1 and isinstance(chosen[0], BaseObserver):
            slots[section] = chosen[0]
        else:
            slots[section] = CompositeObserver(chosen) if chosen else None
    return slots


__all__ = [
    "BaseObserver", "CompositeObserver", "HOOKS", "SECTIONS", "implemented_hooks",
    "section_observers", "SimulatorHooks", "SMHooks", "ExecutionEngineHooks",
    "DispatcherHooks", "CPUHooks", "ServingHooks",
]
