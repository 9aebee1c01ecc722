"""Unified runtime observability: metrics, snapshots, profiling, health.

The ``obs`` package gives every layer of the simulator an always-on,
O(1)-memory view of what a run is doing *while* it executes:

* :mod:`repro.obs.metrics` — counters, gauges and log-bucketed histograms in
  a checkpointable :class:`MetricsRegistry`.
* :mod:`repro.obs.hub` — the :class:`MetricsHub`: per-event-kind counting on
  the engine hot path plus sim-time-aligned snapshot rows.
* :mod:`repro.obs.samplers` — read-only per-layer samplers (engine, GPU,
  serving, cluster).
* :mod:`repro.obs.exporters` — JSONL time series, Prometheus text
  exposition and an ASCII dashboard.
* :mod:`repro.obs.profiler` — wall-clock self-profiling per event kind and
  per phase (the multi-line ``--profile`` report).
* :mod:`repro.obs.health` — heartbeat lines for long serving runs.

Scenario opt-in is ``ScenarioSpec(metrics={...})`` (or ``--metrics`` on the
CLI); the hard contract is that simulation *results* are byte-identical with
observability on or off.
"""

from repro.obs.exporters import (
    read_jsonl,
    render_dashboard,
    render_jsonl,
    render_prometheus,
    write_jsonl,
    write_prometheus,
)
from repro.obs.health import HealthReporter
from repro.obs.hub import (
    DEFAULT_INTERVAL_US,
    MetricsHub,
    normalize_label,
    resolve_metrics_spec,
)
from repro.obs.metrics import (
    CounterMetric,
    GaugeMetric,
    LogHistogram,
    MetricsRegistry,
    MetricTypeError,
)
from repro.obs.profiler import EventLoopProfiler, Phase, PhaseProfiler
from repro.obs.samplers import (
    attach_engine_metrics,
    attach_fleet_metrics,
    attach_gpu_metrics,
    attach_serving_metrics,
)

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "LogHistogram",
    "MetricsRegistry",
    "MetricTypeError",
    "MetricsHub",
    "DEFAULT_INTERVAL_US",
    "normalize_label",
    "resolve_metrics_spec",
    "attach_engine_metrics",
    "attach_gpu_metrics",
    "attach_serving_metrics",
    "attach_fleet_metrics",
    "render_jsonl",
    "write_jsonl",
    "read_jsonl",
    "render_prometheus",
    "write_prometheus",
    "render_dashboard",
    "HealthReporter",
    "EventLoopProfiler",
    "PhaseProfiler",
    "Phase",
]
