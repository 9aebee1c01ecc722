"""Event primitives for the discrete-event simulation engine.

An :class:`Event` couples a firing time with a callback.  Events are ordered
by ``(time, priority, sequence)`` so that simultaneous events fire in a
deterministic order: first by explicit priority (lower fires earlier), then by
scheduling order.  Determinism matters because the whole reproduction relies
on seeded, repeatable runs (see DESIGN.md section 5).

Performance notes
-----------------
Events sit on the simulator's hottest path: large-GPU scenarios create one
event per thread-block *wave* (see :mod:`repro.gpu.sm`) and still push
hundreds of thousands of them through the heap.  :class:`Event` is therefore
a plain ``__slots__`` class (no per-instance ``__dict__``, no dataclass
machinery in ``__init__``), and the :class:`~repro.sim.engine.Simulator`
stores ``(time, priority, seq, event)`` tuples on its heap so ordering is
C-level tuple comparison.  ``seq`` is unique per simulator, so comparisons
never reach the event object, which defines no ordering of its own.
"""

from __future__ import annotations

from typing import Callable, Optional


class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time (microseconds) at which the event fires.
    priority:
        Tie-breaker for events scheduled at the same time.  Lower values fire
        first.  The engines in :mod:`repro.gpu` use priorities to guarantee,
        e.g., that a thread-block completion is processed before the kernel
        completion check scheduled at the same instant.
    seq:
        Monotonic sequence number assigned at scheduling time; the final
        tie-breaker, which makes event ordering fully deterministic.
    callback:
        Zero-argument callable invoked when the event fires.
    cancelled:
        Cancelled events stay in the heap but are skipped when popped.
    on_cancelled:
        Invoked exactly once when a still-pending event is cancelled.  The
        owning simulator uses it to keep its live-event count exact even when
        handles are cancelled directly (without going through
        :meth:`repro.sim.engine.Simulator.cancel`).
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "cancelled",
        "fired",
        "label",
        "on_cancelled",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
        on_cancelled: Optional[Callable[[], None]] = None,
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = cancelled
        #: Set by the simulator the moment the event is popped for execution
        #: (before its callback runs); used to tell pending events apart.
        self.fired = False
        self.on_cancelled = on_cancelled

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it is popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.on_cancelled is not None:
            notify, self.on_cancelled = self.on_cancelled, None
            notify()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, prio={self.priority}, seq={self.seq}, {state})"


class EventHandle:
    """Opaque handle returned by :meth:`repro.sim.engine.Simulator.schedule`.

    The handle allows the owner to cancel a pending event without exposing the
    mutable :class:`Event` object itself.
    """

    __slots__ = ("_event",)

    def __init__(self, event: Event):
        self._event = event

    @property
    def time(self) -> float:
        """Absolute time the event is scheduled to fire at."""
        return self._event.time

    @property
    def label(self) -> str:
        """Human-readable label given at scheduling time (may be empty)."""
        return self._event.label

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this handle."""
        return self._event.cancelled

    @property
    def seq(self) -> int:
        """Sequence number assigned at scheduling time."""
        return self._event.seq

    @property
    def pending(self) -> bool:
        """Whether the event still sits un-fired and un-cancelled in the heap."""
        event = self._event
        return not event.fired and not event.cancelled

    def cancel(self) -> None:
        """Cancel the pending event; a no-op if it already fired."""
        self._event.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, {state}, label={self.label!r})"

