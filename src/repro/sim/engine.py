"""The discrete-event simulation engine.

The engine is intentionally small: a time-ordered heap of events, a current
simulation time, and helpers to schedule, cancel and run.  Every hardware
model in :mod:`repro.gpu`, :mod:`repro.memory` and :mod:`repro.host` is built
as a set of callbacks scheduled on one shared :class:`Simulator` instance.

Times are floats in **microseconds**.  The engine never rounds times; the
models themselves decide their own granularity.

Hot-path design
---------------
Large-GPU scenarios (see :mod:`repro.workloads.large_gpu`) push hundreds of
thousands of events through one simulator, so the schedule/run loop is built
for throughput while keeping the observable contract bit-for-bit stable:

* The heap stores ``(time, priority, seq, event)`` tuples: ordering is
  C-level tuple comparison, and the unique per-simulator ``seq`` guarantees
  comparisons never reach the :class:`~repro.sim.events.Event` object (a
  plain ``__slots__`` class).
* The simulator's one instrumentation point is a None-gated ``observer``
  slot (see :mod:`repro.sim.observers`), filled only with observers of
  ``on_event_fired`` (the metrics hub, the event-loop profiler).  Time needs
  no observer: scheduling or firing an event in the past raises.
* Cancelled events are discarded lazily when they reach the head of the
  heap; when too many dead entries accumulate (cancellation-heavy preemption
  scenarios), the heap is compacted in place so memory and pop cost stay
  bounded.
* :attr:`pending_events` is an exact O(1) live counter and
  :attr:`peak_heap_entries` records the high-water mark of the heap
  (the repository benchmark, ``perfbench/``, reports it as
  ``sim.peak_queue``).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Optional

from repro.sim.events import Event, EventHandle

#: Compact the heap when it holds more than this many dead (cancelled)
#: entries *and* they outnumber the live ones (see :meth:`Simulator._maybe_compact`).
_COMPACTION_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (scheduling in the past, etc.)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulation clock in microseconds (resumed serving segments
        continue the clock of the segment they were checkpointed from).

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 5.0]
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: Heap of ``(time, priority, seq, event)`` tuples.
        self._heap: list = []
        self._running = False
        self._stopped = False
        #: Per-simulator event sequence (tie-breaker; see events.py).
        self._seq = 0
        #: Exact number of non-cancelled events in the heap; kept so that
        #: :attr:`pending_events` is O(1) (it is queried inside the validation
        #: layer's assertion loops).
        self._live_events = 0
        #: Cancelled events still sitting in the heap (compaction trigger).
        self._dead_entries = 0
        #: Optional observer notified on every fired event
        #: (``on_event_fired``).  It must only *observe*: runs are
        #: byte-identical with and without it.
        self.observer = None
        self.events_processed = 0
        self.events_scheduled = 0
        self.events_cancelled = 0
        #: High-water mark of heap entries (live + dead), for benchmarks.
        self.peak_heap_entries = 0
        #: Number of in-place heap compactions performed (see
        #: :meth:`_maybe_compact`); surfaced by the metrics layer.
        self.compactions = 0

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` microseconds from now.

        ``delay`` must be non-negative; a zero delay schedules the callback at
        the current time (it will run after the currently-executing event
        finishes, ordered by priority and scheduling order).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} us in the past")
        return self.schedule_at(self._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before current time t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, label)
        event.on_cancelled = self._note_cancellation
        heap = self._heap
        heapq.heappush(heap, (time, priority, seq, event))
        self._live_events += 1
        self.events_scheduled += 1
        if len(heap) > self.peak_heap_entries:
            self.peak_heap_entries = len(heap)
        return EventHandle(event)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        handle.cancel()

    def _note_cancellation(self) -> None:
        """Cancellation bookkeeping (fires once per cancelled live event)."""
        self._live_events -= 1
        self.events_cancelled += 1
        self._dead_entries += 1
        if self._dead_entries > _COMPACTION_MIN_DEAD:
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Drop dead heap entries once they outnumber the live ones.

        Cancellation-heavy scenarios (context-switch preemption cancels one
        completion event per evicted wave) would otherwise grow the heap with
        entries that are only discarded when popped.  Compaction rewrites the
        heap *in place* (slice assignment) so aliases held by a running
        :meth:`run` loop stay valid.
        """
        heap = self._heap
        if self._dead_entries * 2 <= len(heap):
            return
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._dead_entries = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _fire(self, entry) -> None:
        """Advance the clock to ``entry`` and run its callback."""
        event = entry[3]
        previous_now = self._now
        # The event left the heap: late cancels must not touch the count, and
        # ``fired`` must flip *before* the callback runs (wave joining relies
        # on a firing event no longer reading as pending).
        event.fired = True
        event.on_cancelled = None
        self._live_events -= 1
        self._now = entry[0]
        self.events_processed += 1
        if self.observer is not None:
            self.observer.on_event_fired(event, previous_now)
        event.callback()

    def step(self) -> bool:
        """Process the next pending event.

        Returns ``True`` if an event was processed, ``False`` if the event
        queue is empty (cancelled events are discarded transparently).
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[3].cancelled:
                self._dead_entries -= 1
                continue
            if entry[0] < self._now:  # pragma: no cover - defensive
                raise SimulationError("event heap yielded an event from the past")
            self._fire(entry)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains, ``until`` is reached, or stopped.

        Parameters
        ----------
        until:
            Optional absolute time bound.  Events scheduled strictly after
            ``until`` are left in the queue and the clock is advanced to
            ``until`` — on every exit path, including :meth:`stop`.  If a
            stopped run leaves events scheduled *before* ``until`` pending,
            the clock only advances to the earliest of them, so the run can
            be resumed without firing events in the past.
        max_events:
            Optional safety bound on the number of events to process; mostly
            useful in tests to catch livelocks.  Raises while the offending
            event is still queued; an empty (or out-of-bound) queue at the
            bound is a normal exit.
        """
        self._running = True
        self._stopped = False
        processed = 0
        heap = self._heap  # stable alias: compaction rewrites in place
        heappop = heapq.heappop
        try:
            while heap and not self._stopped:
                entry = heap[0]
                if entry[3].cancelled:
                    heappop(heap)
                    self._dead_entries -= 1
                    continue
                if until is not None and entry[0] > until:
                    break
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"simulation exceeded max_events={max_events}; possible livelock"
                    )
                heappop(heap)
                if entry[0] < self._now:  # pragma: no cover - defensive
                    raise SimulationError("event heap yielded an event from the past")
                self._fire(entry)
                processed += 1
            # One consistent clamp for every exit path (drained, reached
            # ``until``, or stopped): the clock advances to ``until``, but
            # never past a still-pending event (a stopped run may leave
            # events before ``until`` in the queue, and jumping over them
            # would break the no-events-in-the-past invariant on resume).
            if until is not None:
                bound = until
                next_time = self.peek_time()
                if next_time is not None and next_time < bound:
                    bound = next_time
                self._now = max(self._now, bound)
        finally:
            self._running = False

    def stop(self) -> None:
        """Request that :meth:`run` returns after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return self._live_events

    def pending_labels(self) -> Iterable[str]:
        """Labels of pending events in fire order (debugging aid for tests)."""
        return [
            entry[3].label for entry in sorted(self._heap) if not entry[3].cancelled
        ]

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._dead_entries -= 1
        return heap[0][0] if heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}us, pending={self.pending_events}, "
            f"processed={self.events_processed})"
        )
