"""Measuring the simulator's layers from outside it.

Two instruments, both owned by the benchmark so nothing under ``src/`` changes:

* :class:`Spans` records named host-time intervals around the benchmark's own
  calls into the simulator (set-up stages, the timed run, checks).
* :func:`self_time_by_package` groups one deterministic ``cProfile`` pass by
  ``repro.<package>``; :func:`call_count` reads exact call counts from it.
"""

from __future__ import annotations

import math
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Metric names and units a ``BENCHMARK.json`` may hold.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: Profile group of frames outside the simulator that no simulator frame called.
OTHER = "other"


def check_metric(name: str, unit: str) -> None:
    """Reject a metric name or unit outside the allowed characters and lengths."""
    if not NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    if not UNIT_RE.match(unit):
        raise ValueError(f"bad unit {unit!r} for metric {name!r}")


@dataclass
class Span:
    """One host-time interval; ``parent`` indexes the enclosing span."""

    name: str
    start: float
    end: float
    parent: Optional[int]


class Spans:
    """In-memory span recorder; nested ``span()`` calls record their parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        """Durations (s) of every closed span called ``name``, in start order."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def to_dicts(self) -> List[Dict[str, object]]:
        """JSON-ready form, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name,
                "start_s": round(s.start - origin, 6),
                "end_s": round(s.end - origin, 6),
                "parent": s.parent,
            }
            for s in self.spans
        ]


# ----------------------------------------------------------------------
# Profile grouping
# ----------------------------------------------------------------------
#: ``pstats`` key: (filename, line, function name).
FuncKey = Tuple[str, int, str]


def package_of(filename: str, root: str) -> Optional[str]:
    """The ``repro.<package>`` a frame's file belongs to, or ``None``.

    ``root`` is the directory of the imported ``repro`` package.  Modules at
    its top level (``system.py``, ``runner.py``, ...) group as ``repro``.
    """
    path = filename.replace(os.sep, "/")
    prefix = root.replace(os.sep, "/").rstrip("/") + "/"
    if not path.startswith(prefix):
        return None
    head, sep, _ = path[len(prefix):].partition("/")
    return head if sep else "repro"


def self_time_by_package(stats: Mapping[FuncKey, tuple], root: str) -> Dict[str, float]:
    """Profiled self time (s) per ``repro.<package>``.

    A simulator frame's self time goes to its package.  Frames outside the
    simulator (builtins such as ``heapq.heappush``, the standard library)
    are charged to the package of each caller, by the self time of that call
    edge, so a layer's share includes the library work it asks for.  What no
    simulator frame called lands in :data:`OTHER`.
    """
    totals: Dict[str, float] = {}
    for (filename, _, _), (_, _, self_s, _, callers) in stats.items():
        package = package_of(filename, root)
        if package is not None:
            totals[package] = totals.get(package, 0.0) + self_s
            continue
        charged = 0.0
        for caller, edge in callers.items():
            caller_package = package_of(caller[0], root)
            if caller_package is not None:
                totals[caller_package] = totals.get(caller_package, 0.0) + edge[2]
                charged += edge[2]
        totals[OTHER] = totals.get(OTHER, 0.0) + self_s - charged
    return totals


def shares(totals: Mapping[str, float], layers: Sequence[str]) -> Dict[str, float]:
    """Each layer's fraction of all profiled self time (0 for absent layers)."""
    whole = sum(totals.values())
    return {layer: (totals.get(layer, 0.0) / whole if whole > 0 else 0.0) for layer in layers}


def call_count(stats: Mapping[FuncKey, tuple], path_suffix: str, function: str) -> int:
    """Calls of ``function`` defined in a file ending with ``path_suffix``."""
    return sum(
        entry[1]
        for (filename, _, name), entry in stats.items()
        if name == function and filename.replace(os.sep, "/").endswith(path_suffix)
    )


# ----------------------------------------------------------------------
# Metric arithmetic
# ----------------------------------------------------------------------
def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def slo_miss_ratio(slo_misses: int, dropped: int, arrived: int) -> float:
    """SLO misses plus dropped requests, over requests arrived.

    A dropped request never completes, so it misses any latency limit.
    """
    return ratio(slo_misses + dropped, arrived)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q <= 1) of a non-empty sample."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    # The epsilon keeps float products such as 0.99 * 100 on their exact rank.
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


__all__ = [
    "NAME_RE",
    "UNIT_RE",
    "OTHER",
    "check_metric",
    "Span",
    "Spans",
    "package_of",
    "self_time_by_package",
    "shares",
    "call_count",
    "ratio",
    "slo_miss_ratio",
    "nearest_rank",
]
