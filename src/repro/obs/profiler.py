"""Wall-clock self-profiling: per-event-kind and per-phase attribution.

Two complementary profilers replace the old single-line ``--profile``:

* :class:`EventLoopProfiler` is an ``on_event_fired`` observer and
  attributes the event loop's wall-clock time per normalized event kind —
  "where does the time go *inside* a run".  Install it like any observer:
  ``system.install_observer(EventLoopProfiler())``.
* :class:`PhaseProfiler` wraps coarse phases (one experiment, cache
  collection) with a context manager and renders the multi-line report the
  CLI prints to stderr — "where does the time go *across* a run".

Profiling only measures; it never touches simulation state, so results stay
byte-identical with profiling on or off (wall-clock readings go to stderr
exclusively).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.obs.hub import normalize_label
from repro.sim.observers import BaseObserver


class EventLoopProfiler(BaseObserver):
    """Attribute event-loop wall time per normalized event kind.

    Each fired event is charged the wall time until the next one fires: its
    callback plus the loop's bookkeeping and the other observers' hooks.
    The last event of a run is counted but not timed (and in a run split
    into several ``run()`` calls, the last event of each call is charged
    the gap until the next call fires its first).
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.kind_wall_s: Dict[str, float] = {}
        self.kind_count: Dict[str, int] = {}
        #: The kind of the event being timed, and when it fired.
        self._timing: Optional[str] = None
        self._fired_s = 0.0

    def on_event_fired(self, event, previous_now) -> None:
        now = self._clock()
        wall = self.kind_wall_s
        if self._timing is not None:
            wall[self._timing] += now - self._fired_s
        kind = normalize_label(event.label)
        wall.setdefault(kind, 0.0)
        self.kind_count[kind] = self.kind_count.get(kind, 0) + 1
        self._timing, self._fired_s = kind, now

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_wall_s(self) -> float:
        return sum(self.kind_wall_s.values())

    @property
    def total_events(self) -> int:
        return sum(self.kind_count.values())

    def top(self, count: int = 10) -> List[Tuple[str, float, int]]:
        """The ``count`` hottest kinds as ``(kind, wall_s, events)``."""
        ranked = sorted(
            self.kind_wall_s.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            (kind, wall, self.kind_count[kind]) for kind, wall in ranked[:count]
        ]

    def format(self, count: int = 10) -> str:
        """Multi-line per-kind report (stderr material)."""
        total = self.total_wall_s
        lines = [
            f"profile: event kinds: {len(self.kind_wall_s)}, "
            f"event-loop wall {total:.3f} s over {self.total_events} event(s)"
        ]
        for kind, wall, events in self.top(count):
            share = wall / total if total else 0.0
            lines.append(
                f"profile:   {kind}: {wall:.3f} s ({share:.1%}), {events} event(s)"
            )
        return "\n".join(lines)


class Phase:
    """One timed phase: name, wall seconds, and an attributable event count."""

    __slots__ = ("name", "wall_s", "events")

    def __init__(self, name: str):
        self.name = name
        self.wall_s = 0.0
        self.events = 0


class PhaseProfiler:
    """Coarse-grained wall-clock attribution across named phases."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._start = clock()
        self.phases: List[Phase] = []

    @contextmanager
    def phase(self, name: str):
        """Time one phase; set ``.events`` on the yielded record if known."""
        record = Phase(name)
        self.phases.append(record)
        start = self._clock()
        try:
            yield record
        finally:
            record.wall_s = self._clock() - start

    @property
    def wall_s(self) -> float:
        return self._clock() - self._start

    @property
    def events(self) -> int:
        return sum(phase.events for phase in self.phases)

    def format(self, *, total_events: Optional[int] = None) -> str:
        """The multi-line ``--profile`` report.

        The first line keeps the legacy single-line shape (wall, events,
        events/s) so existing log scrapers survive; phase lines follow.
        """
        wall = self.wall_s
        events = self.events if total_events is None else total_events
        rate = events / wall if wall > 0 else 0.0
        lines = [
            f"profile: wall {wall:.2f} s, {events} event(s) processed, "
            f"{rate:,.0f} events/s"
        ]
        for phase in self.phases:
            share = phase.wall_s / wall if wall > 0 else 0.0
            detail = f"profile:   phase {phase.name}: {phase.wall_s:.2f} s ({share:.1%})"
            if phase.events:
                phase_rate = phase.events / phase.wall_s if phase.wall_s > 0 else 0.0
                detail += f", {phase.events} event(s), {phase_rate:,.0f} events/s"
            lines.append(detail)
        return "\n".join(lines)


__all__ = ["EventLoopProfiler", "PhaseProfiler", "Phase"]
