"""The metrics hub: per-event-kind counting and sim-time-aligned snapshots.

One :class:`MetricsHub` owns a :class:`~repro.obs.metrics.MetricsRegistry`
plus the machinery that turns it into a time series:

* :meth:`MetricsHub.on_event_fired` is its one hook: an observer of the
  simulator alone, the hub leaves the SMs their wave and ``BlockRun`` fast
  paths.  It counts events per *kind* (labels with digit runs collapsed,
  keeping cardinality O(kinds) no matter how many SMs/blocks/requests a run
  has) and checks whether a snapshot boundary has been crossed.
* Snapshot rows are emitted at simulation times that are exact multiples of
  ``interval_us``.  Because row emission is a pure function of the event
  stream (fire times and labels), serial and parallel runs of the same
  scenario produce byte-identical JSONL (``tests/obs/test_determinism.py``).
* *Samplers* are read-only callbacks registered by each layer (engine, GPU,
  serving, cluster) that copy live state into the registry right before a
  row is cut.  Samplers must never mutate simulation state — the same
  contract as every observer — which is what keeps results byte-identical
  with metrics on or off.
* :meth:`state`/:meth:`restore` round-trip the hub (registry, per-kind
  counts, boundary cursor, rows so far) through JSON, so serving
  checkpoint/resume carries metrics across segments.

The hub schedules **no events** (wave joining in :mod:`repro.gpu.sm` relies
on event-sequence contiguity), and each SM's retire path feeds its wave-size
histogram (``metrics_wave_hist``), not an SM hook: an SM observer turns
spans into blocks.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry
from repro.sim.observers import BaseObserver
from repro.utils import restored_count

#: Default snapshot cadence (µs of simulation time).
DEFAULT_INTERVAL_US = 1000.0

_DIGIT_RUNS = re.compile(r"[0-9]+")

#: Keys accepted in a ``ScenarioSpec.metrics`` mapping.
_METRICS_KEYS = frozenset({"interval_us", "heartbeat", "histogram_growth"})


@lru_cache(maxsize=4096)
def normalize_label(label: str) -> str:
    """Collapse digit runs so per-instance labels share one metric kind.

    ``sm12.wave34.complete`` -> ``smN.waveN.complete``;
    ``serving.arrival.lbm#0`` -> ``serving.arrival.lbm#N``.  Memoised, in a
    bounded cache: labels that carry ids are unbounded.
    """
    if not label:
        return "unlabeled"
    return _DIGIT_RUNS.sub("N", label)


def resolve_metrics_spec(spec: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Validate and default a ``ScenarioSpec.metrics`` mapping.

    ``None``/``False`` mean *off* (callers guard before resolving); ``True``
    and ``{}`` mean *on with defaults*.  Unknown keys are rejected the same
    way :class:`repro.serving.ServingSpec` rejects unknown ``arrivals=`` keys.
    """
    if spec is None or spec is True:
        spec = {}
    unknown = set(spec) - _METRICS_KEYS
    if unknown:
        raise ValueError(f"unknown metrics keys: {sorted(unknown)}")
    interval_us = float(spec.get("interval_us", DEFAULT_INTERVAL_US))
    if interval_us <= 0:
        raise ValueError(f"metrics interval_us must be positive (got {interval_us})")
    growth = float(spec.get("histogram_growth", 2.0))
    return {
        "interval_us": interval_us,
        "heartbeat": bool(spec.get("heartbeat", False)),
        "histogram_growth": growth,
    }


class MetricsHub(BaseObserver):
    """Registry + per-kind event counts + aligned snapshot rows."""

    def __init__(
        self,
        *,
        interval_us: float = DEFAULT_INTERVAL_US,
        start_us: float = 0.0,
        histogram_growth: float = 2.0,
    ):
        if interval_us <= 0:
            raise ValueError(f"interval_us must be positive (got {interval_us})")
        self.registry = MetricsRegistry()
        self.interval_us = float(interval_us)
        self.histogram_growth = float(histogram_growth)
        #: Static run description written by exporters (scheme, scale, ...).
        self.meta: Dict[str, Any] = {}
        #: Normalized event kind -> fired count.
        self.event_counts: Dict[str, int] = {}
        #: Next snapshot boundary: the first multiple of ``interval_us``
        #: strictly after ``start_us`` (boundaries are globally aligned, so a
        #: resumed segment continues the same grid).
        self._next_due = (math.floor(float(start_us) / self.interval_us) + 1) * self.interval_us
        #: Emitted snapshot rows (JSON-native dicts, ascending ``t_us``).
        self.rows: List[Dict[str, Any]] = []
        self._samplers: List[Callable[[float], None]] = []
        self._row_listeners: List[Callable[[Dict[str, Any]], None]] = []

    @classmethod
    def from_spec(
        cls, spec: Optional[Mapping[str, Any]], *, start_us: float = 0.0
    ) -> "MetricsHub":
        resolved = resolve_metrics_spec(spec)
        return cls(
            interval_us=resolved["interval_us"],
            start_us=start_us,
            histogram_growth=resolved["histogram_growth"],
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_sampler(self, sampler: Callable[[float], None]) -> None:
        """Register a read-only callback run right before each row is cut."""
        self._samplers.append(sampler)

    def add_row_listener(self, listener: Callable[[Dict[str, Any]], None]) -> None:
        """Register a callback invoked with each emitted row (heartbeats)."""
        self._row_listeners.append(listener)

    # ------------------------------------------------------------------
    # Simulator hook (hot path)
    # ------------------------------------------------------------------
    def on_event_fired(self, event, previous_now) -> None:
        """Count one fired event; cut snapshot rows for crossed boundaries."""
        kind = normalize_label(event.label)
        counts = self.event_counts
        counts[kind] = counts.get(kind, 0) + 1
        time_us = event.time
        if time_us >= self._next_due:
            # Emit one row at the *latest* boundary <= time_us; sparse event
            # streams thus produce sparse rows rather than a backlog of
            # identical ones.
            boundary = math.floor(time_us / self.interval_us) * self.interval_us
            self.emit_row(boundary)
            self._next_due = boundary + self.interval_us

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def sample(self, now_us: float) -> None:
        """Run every sampler and mirror per-kind counts into the registry."""
        for sampler in self._samplers:
            sampler(now_us)
        registry_counter = self.registry.counter
        for kind, count in self.event_counts.items():
            registry_counter(f"engine.events.{kind}").set(count)

    def emit_row(self, t_us: float) -> Dict[str, Any]:
        """Cut one snapshot row at simulation time ``t_us``."""
        self.sample(t_us)
        row = {"t_us": t_us, "metrics": self.registry.snapshot()}
        self.rows.append(row)
        for listener in self._row_listeners:
            listener(row)
        return row

    def finalize(self, now_us: float) -> None:
        """Cut the final row at run end (skipped if a row already covers it)."""
        if not self.rows or self.rows[-1]["t_us"] < now_us:
            self.emit_row(now_us)

    # ------------------------------------------------------------------
    # Checkpoint round-trip
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """JSON-native hub state for checkpoints."""
        return {
            "interval_us": self.interval_us,
            "next_due_us": self._next_due,
            "event_counts": dict(sorted(self.event_counts.items())),
            "registry": self.registry.state(),
            "rows": list(self.rows),
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Resume from :meth:`state` output (merging into existing metrics).

        A field that cannot continue the run raises a :class:`ValueError`
        naming it: a snapshot cadence other than this hub's, a boundary that
        is not a finite number, a negative event count, or rows that are not
        a list of ``{"t_us": number, ...}`` mappings.
        """
        if state["interval_us"] != self.interval_us:
            raise ValueError(
                f"interval_us must be this run's {self.interval_us}, not {state['interval_us']!r}"
            )
        next_due = state["next_due_us"]
        if type(next_due) not in (int, float) or not math.isfinite(next_due):
            raise ValueError(f"next_due_us must be a finite number, not {next_due!r}")
        counts = state["event_counts"]
        rows = state["rows"]
        if not isinstance(rows, list) or not all(
            isinstance(row, Mapping) and type(row.get("t_us")) in (int, float) for row in rows
        ):
            raise ValueError(f"rows must be a list of snapshot rows, not {rows!r}")
        self._next_due = float(next_due)
        self.event_counts = {kind: restored_count(counts, kind) for kind in counts}
        self.registry.restore(state["registry"])
        self.rows = [dict(row) for row in rows]


__all__ = [
    "MetricsHub",
    "DEFAULT_INTERVAL_US",
    "normalize_label",
    "resolve_metrics_spec",
]
