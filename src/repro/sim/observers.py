"""The instrumentation-observer vocabulary, written once.

The simulator and the hardware models (SMs, execution engine, command
dispatcher, host CPU, open-loop drivers) each expose a single optional
``observer`` attribute that is notified at instrumentation points.  Observers
must only *observe*: both the validation layer (:mod:`repro.validation`) and
the telemetry subsystem (:mod:`repro.telemetry`) rely on a run with observers
attached being byte-identical to the same run without them.

* :class:`BaseObserver` is the one place the hook vocabulary is written: every
  hook as a no-op, so an observer overrides only the hooks it needs, and
  adding a hook is one method here.
* :class:`CompositeObserver` fans the hooks out to several observers (the
  validation checkers and a trace collector under ``--validate --trace``).
  Its forwarders are built once, from the hooks each child implements, so
  the fan-out adds a call only where several children share a hook, and
  the components keep their cheap single ``observer`` attribute.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, FrozenSet, Iterable, List


class BaseObserver:
    """No-op implementation of every instrumentation hook.

    Subclass and override the hooks you need.  The simulator's high-rate
    hooks (one call per scheduled/fired event) are wired only to observers
    that override one of them.
    """

    # -- simulator ------------------------------------------------------
    def on_event_scheduled(self, event, now) -> None:
        """An event was pushed onto the simulator heap."""

    def on_event_fired(self, event, previous_now) -> None:
        """An event is about to execute (the clock just advanced to it)."""

    # -- SMs ------------------------------------------------------------
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

    # -- execution engine -----------------------------------------------
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

    # -- command dispatcher ---------------------------------------------
    def on_command_enqueued(self, queue_id, command) -> None:
        """A command entered a hardware queue."""

    def on_command_issued(self, queue_id, command) -> None:
        """The dispatcher issued a command to an engine."""

    def on_command_completed(self, queue_id, command_id) -> None:
        """An in-flight command completed and re-enabled its queue."""

    # -- host CPU -------------------------------------------------------
    def on_cpu_phase_started(self, duration_us, label) -> None:
        """A CPU phase started executing on a hardware thread."""

    def on_cpu_phase_finished(self, label) -> None:
        """A CPU phase finished and freed its hardware thread."""

    # -- open-loop serving ----------------------------------------------
    def on_request_arrived(self, request, now) -> None:
        """An open-loop request arrived at the ingress queue."""

    def on_request_admitted(self, request, now) -> None:
        """A queued request was admitted and its kernel launched."""

    def on_request_completed(self, request, now) -> None:
        """An admitted request's kernel completed."""

    def on_request_dropped(self, request, now) -> None:
        """A request was dropped by the admission policy."""


#: Every hook name, in declaration order.
HOOKS = tuple(name for name in vars(BaseObserver) if name.startswith("on_"))


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
        self._observers: List[object] = list(observers)
        implemented = [implemented_hooks(observer) for observer in self._observers]
        #: The hooks at least one child implements.
        self.hooks: FrozenSet[str] = frozenset().union(*implemented)
        for hook in HOOKS:
            methods = [
                getattr(observer, hook)
                for observer, own in zip(self._observers, implemented)
                if hook in own
            ]
            if methods:
                setattr(self, hook, methods[0] if len(methods) == 1 else _fan_out(methods))

    @property
    def observers(self) -> List[object]:
        """The child observers (in notification order)."""
        return list(self._observers)


__all__ = ["BaseObserver", "CompositeObserver", "HOOKS", "implemented_hooks"]
