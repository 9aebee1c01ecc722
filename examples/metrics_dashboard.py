#!/usr/bin/env python3
"""Runtime observability: live metrics on an open-loop serving run.

Attaching ``metrics={...}`` to a scenario wires a :class:`repro.obs.MetricsHub`
through every layer: the engine counts fired events per kind, the GPU samples
per-SM busy fractions and preemption counters, and the serving layer samples
queue depth, admission outcomes and per-tenant SLO counters.  Rows are cut on
sim-time boundaries, so the series is deterministic — byte-identical serial
or parallel, and the simulation itself is byte-identical with metrics on or
off.

This example runs a two-tenant bursty serving scenario with snapshots every
500 us, renders the ASCII dashboard (one sparkline per changing series),
prints the hottest event kinds from the self-profiler, and writes the JSONL
series plus a Prometheus text exposition next to this script.

Run with:  python examples/metrics_dashboard.py
"""

from __future__ import annotations

import pathlib

from repro.obs import (
    EventLoopProfiler,
    render_dashboard,
    write_jsonl,
    write_prometheus,
)
from repro.scenario import ScenarioSpec, SchemeSpec
from repro.serving.driver import ServingDriver

OUT_DIR = pathlib.Path(__file__).resolve().parent


def make_scenario() -> ScenarioSpec:
    """Two tenants — bursty high-priority over steady Poisson — observed."""
    return ScenarioSpec(
        scheme=SchemeSpec(
            name="ppq_cs",
            policy="ppq",
            mechanism="context_switch",
            transfer_policy="npq",
        ),
        applications=("syn-11-0", "syn-11-1"),
        high_priority_index=0,
        scale="smoke",
        metrics={"interval_us": 500.0},
        arrivals={
            "horizon_us": 20_000.0,
            "warmup_us": 2_000.0,
            "queue_capacity": 16,
            "admission": "drop",
            "max_inflight": 4,
            "window_us": 5_000.0,
            "tenants": [
                {"process": "mmpp", "seed": 1, "mean_interarrival_us": 400.0},
                {"process": "poisson", "seed": 2, "mean_interarrival_us": 600.0},
            ],
        },
        slo={"default": 3_000.0},
    )


def main() -> None:
    scenario = make_scenario()
    driver = ServingDriver(scenario)
    profiler = EventLoopProfiler()
    driver.system.install_observer(profiler)
    driver.run()
    hub = driver.system.metrics
    hub.finalize(driver.system.simulator.now)

    print(render_dashboard(hub.rows, meta=hub.meta))
    print(profiler.format(count=5))

    jsonl = write_jsonl(hub.rows, str(OUT_DIR / "serving.metrics.jsonl"), meta=hub.meta)
    prom = write_prometheus(hub.registry, str(OUT_DIR / "serving.metrics.prom"), meta=hub.meta)
    print(f"\nwrote {jsonl}")
    print(f"wrote {prom}")

    summary = driver.summary()
    queue = summary["queue"]
    print(
        f"\nserved {summary['completed']} of {queue['arrived']} requests "
        f"({queue['dropped']} dropped) over {driver.system.simulator.now:,.0f} us"
    )


if __name__ == "__main__":
    main()
