"""Snapshot exporters: JSONL time series, Prometheus text, ASCII dashboard.

Each format is a plain function of the hub's ``meta`` mapping and its
snapshot rows (Prometheus: its registry's last values)::

    write_jsonl(hub.rows, "run.metrics.jsonl", meta=hub.meta)
    write_prometheus(hub.registry, "run.metrics.prom", meta=hub.meta)
    print(render_dashboard(hub.rows, meta=hub.meta))

All three are deterministic: the same rows always produce the same bytes
(the serial-vs-parallel JSONL identity in ``tests/obs/test_determinism.py``
depends on this, so keep ``sort_keys`` and the fixed separators).
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping, Optional, Sequence

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_]")

#: Ten-level ASCII ramp used for dashboard sparklines (pure ASCII on purpose:
#: the dashboard must survive dumb terminals and CI logs).
_SPARK_RAMP = " .:-=+*#%@"


def _dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# JSONL time series
# ----------------------------------------------------------------------
def render_jsonl(rows: Sequence[Mapping[str, Any]], *, meta: Optional[Mapping[str, Any]] = None) -> str:
    """One meta line followed by one line per snapshot row."""
    lines = [_dumps({"meta": dict(meta or {})})]
    lines.extend(_dumps(row) for row in rows)
    return "\n".join(lines) + "\n"


def write_jsonl(
    rows: Sequence[Mapping[str, Any]],
    path: str,
    *,
    meta: Optional[Mapping[str, Any]] = None,
) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_jsonl(rows, meta=meta))
    return path


def read_jsonl(path: str) -> Dict[str, Any]:
    """Parse a written series back into ``{"meta": ..., "rows": [...]}``."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    if not lines or "meta" not in lines[0]:
        raise ValueError(f"{path}: not a metrics JSONL series")
    return {"meta": lines[0]["meta"], "rows": lines[1:]}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def prometheus_name(name: str) -> str:
    """A metric name sanitised to the Prometheus grammar, ``repro_``-prefixed."""
    return "repro_" + _PROM_NAME.sub("_", name)


def render_prometheus(registry, *, meta: Optional[Mapping[str, Any]] = None) -> str:
    """Prometheus text exposition (format 0.0.4) of a registry's last values.

    Histograms are flattened to ``_count``/``_sum`` plus cumulative
    ``_bucket{le=...}`` samples, matching native Prometheus histograms.
    """
    lines: List[str] = []
    for key, value in sorted((meta or {}).items()):
        lines.append(f"# META {key} {value}")
    for name, metric in sorted(registry.metrics().items()):
        prom = prometheus_name(name)
        if metric.kind == "histogram":
            lines.append(f"# TYPE {prom} histogram")
            cumulative = metric.zero_count
            if metric.zero_count:
                lines.append(f'{prom}_bucket{{le="0"}} {cumulative}')
            for index in sorted(metric._buckets):
                cumulative += metric._buckets[index]
                upper = metric.growth ** index
                lines.append(f'{prom}_bucket{{le="{upper:g}"}} {cumulative}')
            lines.append(f'{prom}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{prom}_sum {metric.total:g}")
            lines.append(f"{prom}_count {metric.count}")
        else:
            lines.append(f"# TYPE {prom} {metric.kind}")
            lines.append(f"{prom} {metric.value:g}")
    return "\n".join(lines) + "\n"


def write_prometheus(registry, path: str, *, meta: Optional[Mapping[str, Any]] = None) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_prometheus(registry, meta=meta))
    return path


# ----------------------------------------------------------------------
# ASCII dashboard
# ----------------------------------------------------------------------
def _sparkline(values: Sequence[float], width: int) -> str:
    """Resample ``values`` to ``width`` columns on the ASCII ramp."""
    if not values:
        return " " * width
    if len(values) > width:
        # Nearest-sample resampling keeps the line deterministic.
        step = len(values) / width
        values = [values[min(len(values) - 1, int(i * step))] for i in range(width)]
    low, high = min(values), max(values)
    span = high - low
    ramp_top = len(_SPARK_RAMP) - 1
    cells = []
    for value in values:
        level = ramp_top if span == 0 else int((value - low) / span * ramp_top)
        cells.append(_SPARK_RAMP[level])
    return "".join(cells).ljust(width)


def render_dashboard(
    rows: Sequence[Mapping[str, Any]],
    *,
    meta: Optional[Mapping[str, Any]] = None,
    series: Optional[Sequence[str]] = None,
    width: int = 40,
    max_series: int = 24,
) -> str:
    """An ASCII dashboard: one sparkline per metric series over the run.

    ``series`` selects metric names explicitly; by default every series that
    *changes* over the rows is shown (constant series carry no shape), capped
    at ``max_series`` with a trailing note so truncation is never silent.
    """
    if not rows:
        return "(no snapshot rows)\n"
    names = sorted({name for row in rows for name in row.get("metrics", {})})
    if series is not None:
        selected = [name for name in series if name in names]
    else:
        selected = []
        for name in names:
            values = [row["metrics"].get(name) for row in rows]
            numeric = [v for v in values if isinstance(v, (int, float))]
            if numeric and (len(set(numeric)) > 1 or len(rows) == 1):
                selected.append(name)
    dropped = 0
    if len(selected) > max_series:
        dropped = len(selected) - max_series
        selected = selected[:max_series]
    label_width = max((len(name) for name in selected), default=0)
    t0, t1 = rows[0]["t_us"], rows[-1]["t_us"]
    lines = []
    title = " ".join(f"{key}={value}" for key, value in sorted((meta or {}).items()))
    if title:
        lines.append(title)
    lines.append(
        f"{len(rows)} snapshot(s) over t=[{t0:g}, {t1:g}] us; ramp '{_SPARK_RAMP}'"
    )
    for name in selected:
        values = [
            row["metrics"][name]
            for row in rows
            if isinstance(row["metrics"].get(name), (int, float))
        ]
        last = values[-1] if values else float("nan")
        lines.append(
            f"{name.ljust(label_width)} |{_sparkline(values, width)}| last={last:g}"
        )
    if dropped:
        lines.append(f"... {dropped} more series not shown (pass series= to select)")
    return "\n".join(lines) + "\n"


__all__ = [
    "render_jsonl",
    "write_jsonl",
    "read_jsonl",
    "render_prometheus",
    "write_prometheus",
    "prometheus_name",
    "render_dashboard",
]
