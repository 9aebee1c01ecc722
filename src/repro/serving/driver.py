"""The open-loop serving driver: arrival streams → admission → GPU launches.

:class:`ServingDriver` executes one *segment* of an open-loop serving run on
a fresh :class:`~repro.system.GPUSystem`: per-tenant arrival processes
generate timed request events, requests pass through the bounded
:class:`~repro.serving.queue.IngressQueue`, and admitted requests launch one
kernel each (drawn round-robin from the tenant's application trace) with the
tenant's priority, which the GPU scheduling policy then arbitrates.
Completions feed the O(1)-memory :class:`~repro.serving.metrics.ServingMetrics`.

Checkpoint/resume uses *quiesce-at-idle* semantics: a segment asked to stop
near time ``b`` keeps running normally until the first instant at or after
``b`` when the serving layer is idle (admission queue empty, no in-flight
requests).  At such an instant the entire simulation state reduces to the
clock, the per-tenant arrival cursors, the admission counters and the metric
estimators — all JSON-serialisable — so a resumed run rebuilt from the
checkpoint is *byte-identical* to the unsplit run: the segment's system is
built by :meth:`~repro.system.GPUSystem.from_scenario` at the checkpoint's
clock and launch count (per-launch deterministic jitter is keyed by launch
id), :meth:`ServingSpec.tenant_contexts` creates the contexts in spec order
(same context ids), and arrival gaps are key-addressed by request index, not
RNG state.  A malformed checkpoint raises :class:`ValueError`.

Use :func:`run_serving` for whole runs (optionally split across checkpoint
bounds); it JSON-round-trips every checkpoint to prove serialisability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.registry import ARRIVALS
from repro.scenario import ScenarioSpec
from repro.serving.arrivals import ArrivalProcess
from repro.serving.metrics import ServingMetrics
from repro.serving.queue import ADMISSION_POLICIES, IngressQueue, QueueCounters, Request
from repro.system import GPUSystem

#: Version tag of the checkpoint payload (bumped on incompatible changes).
CHECKPOINT_SCHEMA = 1
#: Version tag of the serving summary payload.
SUMMARY_SCHEMA = 1

#: Keys accepted in ``ScenarioSpec.arrivals`` (everything else is rejected,
#: mirroring the scenario JSON loader's unknown-key policy).
_ARRIVAL_KEYS = frozenset(
    {
        "horizon_us",
        "warmup_us",
        "queue_capacity",
        "admission",
        "max_inflight",
        "window_us",
        "reservoir_capacity",
        "metrics_seed",
        "tenants",
    }
)

#: Per-tenant keys consumed by the driver itself; every *other* key in a
#: tenant mapping is passed through as an arrival-process option.
_TENANT_DRIVER_KEYS = frozenset({"process", "seed", "priority", "slo_us"})


def _round3(value: float) -> float:
    return round(float(value), 3)


@dataclass
class TenantSpec:
    """One tenant: an application served by one arrival stream."""

    #: Process name (``app#slot``), also the tenant key in summaries.
    name: str
    #: Application whose trace supplies the request kernels.
    app: str
    #: Slot index in the scenario's application list.
    slot: int
    #: Canonical arrival-process name (resolved through ``ARRIVALS``).
    process: str
    #: Arrival-stream seed.
    seed: int
    #: Scheduling priority of the tenant's requests.
    priority: int
    #: Arrival-process options (rate, burstiness, ...).
    options: Dict[str, Any] = field(default_factory=dict)
    #: Latency budget (µs) for SLO-violation counting; ``None`` = no SLO.
    slo_us: Optional[float] = None


@dataclass
class ServingSpec:
    """Parsed, validated form of ``ScenarioSpec.arrivals`` + ``.slo``."""

    horizon_us: float
    warmup_us: float
    queue_capacity: int
    admission: str
    max_inflight: int
    window_us: float
    reservoir_capacity: int
    metrics_seed: int
    tenants: List[TenantSpec]

    @classmethod
    def from_scenario(cls, scenario: ScenarioSpec) -> "ServingSpec":
        """Parse/validate the scenario's serving configuration.

        Unknown arrival-process names raise
        :class:`~repro.registry.UnknownComponentError` (with close-match
        suggestions), like every other registry lookup.
        """
        arrivals = scenario.arrivals
        if arrivals is None:
            raise ValueError("scenario has no arrivals= section (closed-loop)")
        unknown = set(arrivals) - _ARRIVAL_KEYS
        if unknown:
            raise ValueError(
                f"unknown arrivals keys: {sorted(unknown)} "
                f"(accepted: {sorted(_ARRIVAL_KEYS)})"
            )
        if "horizon_us" not in arrivals:
            raise ValueError("arrivals requires horizon_us")
        horizon_us = float(arrivals["horizon_us"])
        if horizon_us <= 0:
            raise ValueError("horizon_us must be positive")
        warmup_us = float(arrivals.get("warmup_us", 0.0))
        if not 0.0 <= warmup_us < horizon_us:
            raise ValueError("warmup_us must be in [0, horizon_us)")
        admission = str(arrivals.get("admission", "drop"))
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r} "
                f"(choose from {', '.join(ADMISSION_POLICIES)})"
            )
        max_inflight = int(arrivals.get("max_inflight", 8))
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")

        tenant_specs = arrivals.get("tenants")
        if tenant_specs is None:
            tenant_specs = [{} for _ in scenario.applications]
        if len(tenant_specs) != len(scenario.applications):
            raise ValueError(
                f"arrivals.tenants has {len(tenant_specs)} entries for "
                f"{len(scenario.applications)} applications"
            )

        slo = dict(scenario.slo or {})
        tenants: List[TenantSpec] = []
        for slot, (app, name, tenant) in enumerate(
            zip(scenario.applications, scenario.process_names(), tenant_specs)
        ):
            tenant = dict(tenant)
            process = ARRIVALS.canonical_name(str(tenant.get("process", "poisson")))
            default_priority = (
                scenario.high_priority
                if slot == scenario.high_priority_index
                else scenario.normal_priority
            )
            slo_us = tenant.get("slo_us")
            if slo_us is None:
                for key in (name, app, "default"):
                    if key in slo and slo[key] is not None:
                        slo_us = slo[key]
                        break
            options = {
                key: value
                for key, value in tenant.items()
                if key not in _TENANT_DRIVER_KEYS
            }
            tenants.append(
                TenantSpec(
                    name=name,
                    app=app,
                    slot=slot,
                    process=process,
                    seed=int(tenant.get("seed", slot)),
                    priority=int(tenant.get("priority", default_priority)),
                    options=options,
                    slo_us=None if slo_us is None else float(slo_us),
                )
            )

        return cls(
            horizon_us=horizon_us,
            warmup_us=warmup_us,
            queue_capacity=int(arrivals.get("queue_capacity", 64)),
            admission=admission,
            max_inflight=max_inflight,
            window_us=float(arrivals.get("window_us", horizon_us / 4.0)),
            reservoir_capacity=int(arrivals.get("reservoir_capacity", 32)),
            metrics_seed=int(arrivals.get("metrics_seed", 0)),
            tenants=tenants,
        )

    def tenant_contexts(
        self, system, suite
    ) -> Dict[str, Tuple[Any, List[Tuple[str, Any]]]]:
        """``{tenant: (context, kernels)}``, creating the contexts in spec order.

        ``kernels`` are the app's ``(name, KernelSpec)`` pairs, sorted by name.
        The fixed order keeps context ids stable across segments and epochs.
        """
        contexts = {}
        for tenant in self.tenants:
            trace = suite.trace(tenant.app)
            kernels = [(name, trace.kernels[name]) for name in sorted(trace.kernels)]
            context = system.driver.create_context(tenant.name, priority=tenant.priority)
            contexts[tenant.name] = (context, kernels)
        return contexts


#: Keys every serving checkpoint carries (``obs`` is optional), and per tenant.
_CHECKPOINT_KEYS = (
    "clock_us", "request_seq", "events_processed", "queue_counters", "metrics", "tenants"
)
_TENANT_STATE_KEYS = ("process", "next_arrival_us", "count")


def _check_checkpoint(state: Mapping[str, Any], spec: ServingSpec) -> None:
    """Raise :class:`ValueError` for a checkpoint that cannot continue ``spec``'s run.

    :meth:`GPUSystem.from_scenario` checks the clock and the launch base.
    """
    if int(state.get("schema", -1)) != CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported serving checkpoint schema {state.get('schema')!r}")
    tenants = state.get("tenants", {})
    missing = [key for key in _CHECKPOINT_KEYS if key not in state] + [
        f"tenants.{name}.{key}"
        for name, tstate in tenants.items()
        for key in _TENANT_STATE_KEYS
        if key not in tstate
    ]
    if missing:
        raise ValueError(f"serving checkpoint is missing {missing}")
    expected = sorted(tenant.name for tenant in spec.tenants)
    if sorted(tenants) != expected:
        raise ValueError(f"checkpoint tenants {sorted(tenants)} are not {expected}")
    counts = {f"tenants.{name}.count": t["count"] for name, t in tenants.items()}
    for key in ("arrived", "admitted", "dropped"):
        counts[f"queue_counters.{key}"] = state["queue_counters"][key]
    negative = [key for key, value in counts.items() if int(value) < 0]
    if negative:
        raise ValueError(f"serving checkpoint has negative {negative}")


@dataclass
class _TenantRuntime:
    """Live per-tenant state inside one segment."""

    spec: TenantSpec
    process: ArrivalProcess
    context: Any
    #: (kernel name, KernelSpec) in sorted-name order; requests cycle it.
    kernels: List[Tuple[str, Any]]
    #: Absolute time of the tenant's next (not yet offered) arrival.
    next_arrival_us: float
    #: Requests generated so far (the arrival-stream cursor).
    count: int = 0


class ServingDriver:
    """Executes one serving segment on a fresh :class:`GPUSystem`.

    The driver owns the system: it creates one GPU context per tenant,
    schedules arrival events, admits requests through the ingress queue and
    launches their kernels.  After :meth:`run` returns, :meth:`summary` and
    :meth:`checkpoint` expose the results.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        *,
        config=None,
        suite=None,
        checkpoint: Optional[Mapping[str, Any]] = None,
    ):
        from repro.workloads.synthetic import SyntheticSuite  # local: avoids cycle

        self.scenario = scenario
        self.spec = spec = ServingSpec.from_scenario(scenario)
        self.suite = (
            suite if suite is not None else SyntheticSuite(scenario.workload_scale())
        )
        self.queue = IngressQueue(
            capacity=spec.queue_capacity, admission=spec.admission
        )

        state = checkpoint
        if state is not None:
            _check_checkpoint(state, spec)
            self.queue.counters = QueueCounters.from_dict(state["queue_counters"])
        start_us = float(state["clock_us"]) if state else 0.0
        self.system = GPUSystem.from_scenario(
            scenario,
            config=config,
            suite=self.suite,
            start_time_us=start_us,
            # One launch per admitted request: the serving system runs no
            # host processes.
            launch_base=self.queue.counters.admitted,
        )
        #: Observer target, kept in sync by ``GPUSystem._rewire_observers``.
        self.observer = None
        self.system.serving = self
        self.system._rewire_observers()  # noqa: SLF001 - observers pre-date us

        if state:
            self.metrics = ServingMetrics.restore(state["metrics"])
            self._request_seq = int(state["request_seq"])
            self._events_before = int(state["events_processed"])
        else:
            self.metrics = ServingMetrics(
                tenants={t.name: t.slo_us for t in spec.tenants},
                warmup_us=spec.warmup_us,
                window_us=spec.window_us,
                seed=spec.metrics_seed,
                reservoir_capacity=spec.reservoir_capacity,
            )
            self._request_seq = 0
            self._events_before = 0

        self._tenants: List[_TenantRuntime] = []
        contexts = spec.tenant_contexts(self.system, self.suite)
        for tenant in spec.tenants:
            process = ARRIVALS.create(
                tenant.process, seed=tenant.seed, **dict(tenant.options)
            )
            context, kernels = contexts[tenant.name]
            runtime = _TenantRuntime(
                spec=tenant,
                process=process,
                context=context,
                kernels=kernels,
                next_arrival_us=0.0,
            )
            if state:
                tstate = state["tenants"][tenant.name]
                process.restore(tstate["process"])
                runtime.next_arrival_us = float(tstate["next_arrival_us"])
                runtime.count = int(tstate["count"])
                # An arrival past the horizon is never scheduled, so a drained
                # run's final checkpoint may carry one behind its clock.
                if start_us > runtime.next_arrival_us <= spec.horizon_us:
                    raise ValueError(
                        f"checkpoint tenant {tenant.name!r} has next_arrival_us "
                        f"{runtime.next_arrival_us} before clock_us {start_us}"
                    )
            else:
                runtime.next_arrival_us = process.next_gap_us()
            self._tenants.append(runtime)
        self._by_name = {runtime.spec.name: runtime for runtime in self._tenants}
        self._inflight = 0
        self._quiesce_armed = False
        self._stopped_for_checkpoint = False
        #: True once the run reached the horizon and drained (vs. quiesced).
        self.complete = False

        #: Heartbeat reporter (``None`` unless ``metrics={"heartbeat": ...}``).
        self.health = None
        hub = self.system.metrics
        if hub is not None:
            from repro.obs import (  # local: keeps import cheap
                HealthReporter,
                attach_serving_metrics,
                resolve_metrics_spec,
            )

            if state is not None and "obs" in state:
                hub.restore(state["obs"])
            attach_serving_metrics(hub, self)
            if resolve_metrics_spec(scenario.metrics)["heartbeat"]:
                self.health = HealthReporter(horizon_us=self.spec.horizon_us)
                if state is not None:
                    self.health.note_checkpoint(start_us)
                hub.add_row_listener(self.health.heartbeat)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, *, quiesce_at_us: Optional[float] = None) -> "ServingDriver":
        """Run the segment to the horizon, or quiesce near ``quiesce_at_us``.

        With ``quiesce_at_us`` set, the segment stops at the first idle
        instant (queue empty, nothing in flight) at or after that time and
        :attr:`complete` stays ``False``; :meth:`checkpoint` then resumes it.
        If the run drains naturally first, it completes like an unbounded
        segment (resuming the checkpoint is then a no-op segment).
        """
        sim = self.system.simulator
        for runtime in self._tenants:
            if runtime.next_arrival_us <= self.spec.horizon_us:
                self._schedule_arrival(runtime)
        if quiesce_at_us is not None:
            sim.schedule(
                max(0.0, float(quiesce_at_us) - sim.now),
                self._on_quiesce_probe,
                label="serving.quiesce",
            )
        self.system.run(max_events=self.scenario.resolved_max_events())
        if self._inflight or len(self.queue):
            raise RuntimeError(
                "serving segment stopped with work outstanding "
                f"(inflight={self._inflight}, queued={len(self.queue)})"
            )
        self.complete = not self._stopped_for_checkpoint
        return self

    def _schedule_arrival(self, runtime: _TenantRuntime) -> None:
        sim = self.system.simulator
        sim.schedule(
            max(0.0, runtime.next_arrival_us - sim.now),
            lambda runtime=runtime: self._on_arrival(runtime),
            label=f"serving.arrival.{runtime.spec.name}",
        )

    def _on_arrival(self, runtime: _TenantRuntime) -> None:
        spec = runtime.spec
        arrival_us = runtime.next_arrival_us
        kernel_name, _ = runtime.kernels[runtime.count % len(runtime.kernels)]
        request = Request(
            request_id=self._request_seq,
            tenant=spec.name,
            kernel=kernel_name,
            priority=spec.priority,
            arrival_us=arrival_us,
            tenant_index=runtime.count,
        )
        self._request_seq += 1
        runtime.count += 1
        # Advance the stream; gaps accumulate from *true* arrival times, so
        # the arrival schedule is independent of queueing and segmentation.
        runtime.next_arrival_us = arrival_us + runtime.process.next_gap_us()
        if runtime.next_arrival_us <= self.spec.horizon_us:
            self._schedule_arrival(runtime)
        now = self.system.simulator.now
        if self.observer is not None:
            self.observer.on_request_arrived(request, now)
        dropped = self.queue.offer(request)
        if dropped is not None and self.observer is not None:
            self.observer.on_request_dropped(dropped, now)
        self._dispatch()

    def _dispatch(self) -> None:
        while self._inflight < self.spec.max_inflight:
            request = self.queue.pop()
            if request is None:
                break
            self._launch(request)

    def _launch(self, request: Request) -> None:
        runtime = self._by_name[request.tenant]
        now = self.system.simulator.now
        request.admit_us = now
        _, kernel_spec = runtime.kernels[
            request.tenant_index % len(runtime.kernels)
        ]
        command = self.system.driver.launch_kernel(
            runtime.context, kernel_spec, priority=request.priority
        )
        self._inflight += 1
        if self.observer is not None:
            self.observer.on_request_admitted(request, now)
        command.subscribe_completion(
            lambda done_us, request=request: self._on_complete(request, done_us)
        )

    def _on_complete(self, request: Request, now: float) -> None:
        request.complete_us = now
        self._inflight -= 1
        self.metrics.record_completion(
            request.tenant,
            arrival_us=request.arrival_us,
            admit_us=request.admit_us,
            complete_us=now,
        )
        if self.observer is not None:
            self.observer.on_request_completed(request, now)
        self._dispatch()
        self._maybe_quiesce()

    def _on_quiesce_probe(self) -> None:
        self._quiesce_armed = True
        self._maybe_quiesce()

    def _maybe_quiesce(self) -> None:
        if (
            self._quiesce_armed
            and not self._stopped_for_checkpoint
            and self._inflight == 0
            and len(self.queue) == 0
        ):
            self._stopped_for_checkpoint = True
            self.system.simulator.stop()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Engine events processed across all segments so far."""
        return self._events_before + self.system.simulator.events_processed

    def checkpoint(self) -> Dict[str, Any]:
        """JSON-serialisable resume state (valid at quiesce or completion)."""
        sim = self.system.simulator
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "clock_us": sim.now,
            "request_seq": self._request_seq,
            "events_processed": self.events_processed,
            "queue_counters": self.queue.counters.to_dict(),
            "metrics": self.metrics.state(),
            "tenants": {
                runtime.spec.name: {
                    "process": runtime.process.state(),
                    "next_arrival_us": runtime.next_arrival_us,
                    "count": runtime.count,
                }
                for runtime in self._tenants
            },
        }
        # Optional (schema-compatible): checkpoints from metrics-off runs
        # stay valid, and metrics-off resumes simply ignore the key.
        if self.system.metrics is not None:
            payload["obs"] = self.system.metrics.state()
        return payload

    def summary(self) -> Dict[str, Any]:
        """The serving summary (admission counters + streaming metrics)."""
        spec = self.spec
        now = self.system.simulator.now
        return {
            "schema": SUMMARY_SCHEMA,
            "horizon_us": _round3(spec.horizon_us),
            "simulated_time_us": _round3(now),
            "queue": {
                "capacity": spec.queue_capacity,
                "admission": spec.admission,
                "max_inflight": spec.max_inflight,
                **self.queue.counters.to_dict(),
            },
            **self.metrics.summary(now_us=now),
        }


@dataclass
class ServingOutcome:
    """Everything a finished (or checkpointed) serving run produced."""

    scenario: ScenarioSpec
    summary: Dict[str, Any]
    checkpoint: Dict[str, Any]
    segments: int
    engine_stats: Dict[str, float]
    simulated_time_us: float
    events_processed: int
    validated: bool
    violations: List[Dict]
    trace_events: List[Any] = field(default_factory=list)
    #: Metrics snapshot rows (``None`` when metrics are off); carried across
    #: checkpoint segments through the hub state in the checkpoint payload.
    metrics_rows: Optional[List[Dict[str, Any]]] = None
    #: Final metric values at run end (``None`` when metrics are off).
    metrics_snapshot: Optional[Dict[str, float]] = None
    #: Hub meta (scheme names etc.) for the JSONL exporter header.
    metrics_meta: Optional[Dict[str, Any]] = None


def run_serving(
    scenario: ScenarioSpec,
    *,
    checkpoint_at: Sequence[float] = (),
    config=None,
    suite=None,
) -> ServingOutcome:
    """Run an open-loop serving scenario, optionally split across segments.

    ``checkpoint_at`` lists simulated times near which the run is quiesced,
    checkpointed and resumed on a fresh system; every checkpoint payload is
    JSON round-tripped, so splitting proves serialisability.  By
    construction a split run's summary is byte-identical to the unsplit
    run's (see the module docstring for why).
    """
    bounds = sorted(float(b) for b in checkpoint_at)
    state: Optional[Dict[str, Any]] = None
    segments = 0
    violations: List[Dict] = []
    trace_events: List[Any] = []
    driver: Optional[ServingDriver] = None
    for bound in [*bounds, None]:
        driver = ServingDriver(scenario, config=config, suite=suite, checkpoint=state)
        driver.run(quiesce_at_us=bound)
        segments += 1
        violations.extend(driver.system.violations())
        if driver.system.telemetry is not None:
            trace_events.extend(driver.system.telemetry.events)
        # Round-trip through JSON even for the in-process hand-off: resume
        # must never depend on live Python objects sneaking through.
        state = json.loads(json.dumps(driver.checkpoint()))
    assert driver is not None
    hub = driver.system.metrics
    if hub is not None:
        hub.finalize(driver.system.simulator.now)
    return ServingOutcome(
        scenario=scenario,
        summary=driver.summary(),
        checkpoint=state,
        segments=segments,
        engine_stats=driver.system.execution_engine.utilization_snapshot(),
        simulated_time_us=driver.system.simulator.now,
        events_processed=driver.events_processed,
        validated=scenario.validate,
        violations=violations,
        trace_events=trace_events,
        metrics_rows=None if hub is None else list(hub.rows),
        metrics_snapshot=None if hub is None else hub.registry.snapshot(),
        metrics_meta=None if hub is None else dict(hub.meta),
    )


__all__ = [
    "CHECKPOINT_SCHEMA",
    "SUMMARY_SCHEMA",
    "TenantSpec",
    "ServingSpec",
    "ServingDriver",
    "ServingOutcome",
    "run_serving",
]
