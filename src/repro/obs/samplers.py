"""Per-layer read-only samplers feeding a :class:`~repro.obs.hub.MetricsHub`.

Each ``attach_*`` function pre-binds the metrics it owns and registers one
closure on the hub; the closure copies live state into the registry right
before a snapshot row is cut.  Samplers are strictly read-only: they pull
from counters and trackers the simulation already maintains
(:class:`~repro.sim.engine.Simulator` bookkeeping, the execution engine's
``stats`` counts, serving queue counters), so enabling metrics cannot
perturb a run.
"""

from __future__ import annotations

from repro.obs.hub import MetricsHub


def attach_engine_metrics(hub: MetricsHub, simulator) -> None:
    """Mirror the event-loop bookkeeping (heap depth, compactions, counts)."""
    registry = hub.registry
    pending = registry.gauge("engine.pending_events")
    heap_entries = registry.gauge("engine.heap_entries")
    peak_heap = registry.gauge("engine.peak_heap_entries")
    processed = registry.counter("engine.events_processed")
    scheduled = registry.counter("engine.events_scheduled")
    cancelled = registry.counter("engine.events_cancelled")
    compactions = registry.counter("engine.heap_compactions")

    def sample(now_us: float) -> None:
        pending.set(simulator.pending_events)
        heap_entries.set(len(simulator._heap))
        peak_heap.set(simulator.peak_heap_entries)
        processed.set(simulator.events_processed)
        scheduled.set(simulator.events_scheduled)
        cancelled.set(simulator.events_cancelled)
        compactions.set(simulator.compactions)

    hub.add_sampler(sample)


def attach_gpu_metrics(hub: MetricsHub, system) -> None:
    """Mirror SM utilisation and the execution engine's event counts.

    Covers per-SM busy fraction (mean/min/max over SMs), block accounting,
    and the per-mechanism preemption counters (``preemptions_via.*`` — the
    controller's per-request mechanism choices) the engine already keeps.
    """
    registry = hub.registry
    engine = system.execution_engine
    sms = engine.sms()
    busy_mean = registry.gauge("gpu.sm_busy_fraction.mean")
    busy_min = registry.gauge("gpu.sm_busy_fraction.min")
    busy_max = registry.gauge("gpu.sm_busy_fraction.max")
    blocks_executed = registry.counter("gpu.blocks_executed")
    blocks_preempted = registry.counter("gpu.blocks_preempted")
    wave_events = registry.counter("gpu.completion_waves_fired")

    def sample(now_us: float) -> None:
        fractions = [sm.busy_fraction(now_us) for sm in sms]
        if fractions:
            busy_mean.set(sum(fractions) / len(fractions))
            busy_min.set(min(fractions))
            busy_max.set(max(fractions))
        blocks_executed.set(sum(sm.blocks_executed for sm in sms))
        blocks_preempted.set(sum(sm.blocks_preempted for sm in sms))
        wave_events.set(sum(sm.completion_waves_fired for sm in sms))
        for name, count in engine.stats.items():
            registry.counter(f"gpu.{name}").set(float(count))

    hub.add_sampler(sample)


def attach_serving_metrics(hub: MetricsHub, driver) -> None:
    """Mirror the admission queue and the streaming serving metrics.

    Queue depth / admission outcomes come from :class:`repro.serving.queue.
    QueueCounters`; completion and per-tenant SLO-violation counts from the
    driver's :class:`~repro.serving.metrics.ServingMetrics`.
    """
    registry = hub.registry
    depth = registry.gauge("serving.queue_depth")
    inflight = registry.gauge("serving.inflight")
    arrived = registry.counter("serving.arrived")
    admitted = registry.counter("serving.admitted")
    dropped = registry.counter("serving.dropped")
    backpressure = registry.counter("serving.backpressure_events")
    peak_depth = registry.gauge("serving.peak_queue_depth")
    completed = registry.counter("serving.completed")

    def sample(now_us: float) -> None:
        counters = driver.queue.counters
        depth.set(len(driver.queue))
        inflight.set(driver.launcher.inflight)
        arrived.set(counters.arrived)
        admitted.set(counters.admitted)
        dropped.set(counters.dropped)
        backpressure.set(counters.backpressure_events)
        peak_depth.set(counters.peak_depth)
        completed.set(driver.metrics.completed)
        for tenant, count in driver.metrics.slo_violations.items():
            registry.counter(f"serving.slo_violations.{tenant}").set(count)
        for tenant, count in counters.per_tenant_admitted.items():
            registry.counter(f"serving.tenant.{tenant}.admitted").set(count)

    hub.add_sampler(sample)


def attach_fleet_metrics(hub: MetricsHub, fleet) -> None:
    """Mirror per-GPU load and router decisions of a multi-GPU fleet.

    The fleet is epoch-driven (members execute in worker processes), so the
    fleet calls :meth:`~repro.obs.hub.MetricsHub.emit_row` itself at each
    epoch boundary; this sampler only mirrors the per-member views the
    router maintains centrally.
    """
    registry = hub.registry
    fleet_depth = registry.gauge("cluster.queue_depth")
    fleet_assigned = registry.counter("cluster.assigned")
    fleet_completed = registry.counter("cluster.completed")

    def sample(now_us: float) -> None:
        fleet_depth.set(len(fleet.queue))
        total_assigned = 0
        total_completed = 0
        for member in fleet._members:
            view = member.view
            total_assigned += view.assigned
            total_completed += view.completed
            prefix = f"cluster.gpu{view.gpu_id}"
            registry.counter(f"{prefix}.assigned").set(view.assigned)
            registry.counter(f"{prefix}.completed").set(view.completed)
            registry.counter(f"{prefix}.launches").set(member.launches)
            registry.counter(f"{prefix}.events_processed").set(member.events_processed)
            for tenant, count in view.tenant_assigned.items():
                registry.counter(f"{prefix}.tenant.{tenant}.assigned").set(count)
        fleet_assigned.set(total_assigned)
        fleet_completed.set(total_completed)

    hub.add_sampler(sample)


__all__ = [
    "attach_engine_metrics",
    "attach_gpu_metrics",
    "attach_serving_metrics",
    "attach_fleet_metrics",
]
