"""The open-loop request path: tenant streams → admission → GPU launches.

Two open loops serve requests from per-tenant arrival streams: this module's
:class:`ServingDriver` on one GPU, and :class:`repro.cluster.GPUFleet` across
several.  Both draw their requests from the same :class:`TenantStream`
cursors (:meth:`ServingSpec.tenant_streams`) and launch them through the same
:class:`RequestLauncher`, which admits queued requests up to ``max_inflight``
and launches one kernel each (drawn round-robin from the tenant's application
trace) with the tenant's priority, which the GPU scheduling policy then
arbitrates.

:class:`ServingDriver` executes one *segment* of a serving run on a fresh
:class:`~repro.system.GPUSystem`: it schedules each stream's arrivals as
events, offers them to the bounded :class:`~repro.serving.queue.IngressQueue`,
and feeds completions to the O(1)-memory
:class:`~repro.serving.metrics.ServingMetrics`.

Checkpoint/resume uses *quiesce-at-idle* semantics: a segment asked to stop
near time ``b`` keeps running normally until the first instant at or after
``b`` when the serving layer is idle (admission queue empty, no in-flight
requests).  At such an instant the entire simulation state reduces to the
clock, the per-tenant arrival cursors, the admission counters and the metric
estimators — all JSON-serialisable — so a resumed run rebuilt from the
checkpoint is *byte-identical* to the unsplit run: the segment's system is
built by :meth:`~repro.system.GPUSystem.from_scenario` at the checkpoint's
clock and launch count (per-launch deterministic jitter is keyed by launch
id), the launcher creates the tenant contexts in spec order (same context
ids), and arrival gaps are key-addressed by request index, not RNG state.  A
malformed checkpoint raises :class:`ValueError`.

Use :func:`run_serving` for whole runs (optionally split across checkpoint
bounds); it JSON-round-trips every checkpoint to prove serialisability.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.registry import ARRIVALS
from repro.scenario import ScenarioSpec
from repro.serving.arrivals import ArrivalProcess
from repro.serving.metrics import ServingMetrics, _round3
from repro.serving.queue import ADMISSION_POLICIES, IngressQueue, QueueCounters, Request
from repro.system import GPUSystem
from repro.utils import checked_duration, checked_int

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
        horizon_us = checked_duration(arrivals["horizon_us"], "horizon_us")
        warmup_us = arrivals.get("warmup_us", 0.0)
        if type(warmup_us) not in (int, float) or not 0 <= warmup_us < horizon_us:
            raise ValueError(f"warmup_us must be in [0, horizon_us), not {warmup_us!r}")
        admission = str(arrivals.get("admission", "drop"))
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r} "
                f"(choose from {', '.join(ADMISSION_POLICIES)})"
            )

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
            slo_key, slo_us = f"tenants[{slot}].slo_us", tenant.get("slo_us")
            if slo_us is None:
                for key in (name, app, "default"):
                    if key in slo and slo[key] is not None:
                        slo_key, slo_us = f"slo[{key!r}]", slo[key]
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
                    seed=checked_int(tenant.get("seed", slot), f"tenants[{slot}].seed"),
                    priority=checked_int(
                        tenant.get("priority", default_priority), f"tenants[{slot}].priority"
                    ),
                    options=options,
                    slo_us=None if slo_us is None else checked_duration(slo_us, slo_key),
                )
            )

        return cls(
            horizon_us=horizon_us,
            warmup_us=float(warmup_us),
            queue_capacity=checked_int(arrivals.get("queue_capacity", 64), "queue_capacity", 1),
            admission=admission,
            max_inflight=checked_int(arrivals.get("max_inflight", 8), "max_inflight", 1),
            window_us=checked_duration(arrivals.get("window_us", horizon_us / 4.0), "window_us"),
            reservoir_capacity=checked_int(
                arrivals.get("reservoir_capacity", 32), "reservoir_capacity", 1
            ),
            metrics_seed=checked_int(arrivals.get("metrics_seed", 0), "metrics_seed"),
            tenants=tenants,
        )

    def tenant_streams(self, suite) -> List["TenantStream"]:
        """One stream per tenant, in spec order, each at its first arrival."""
        streams = []
        for tenant in self.tenants:
            process = ARRIVALS.create(tenant.process, seed=tenant.seed, **tenant.options)
            kernels = sorted(suite.trace(tenant.app).kernels)
            streams.append(TenantStream(tenant, process, kernels, process.next_gap_us()))
        return streams

    def new_metrics(self) -> ServingMetrics:
        """Empty metrics with the tenants' SLO budgets and the spec's estimators."""
        return ServingMetrics(
            tenants={t.name: t.slo_us for t in self.tenants},
            warmup_us=self.warmup_us,
            window_us=self.window_us,
            seed=self.metrics_seed,
            reservoir_capacity=self.reservoir_capacity,
        )

    def queue_summary(self, counters: QueueCounters) -> Dict[str, Any]:
        """A summary's ``queue`` section: the admission settings and ``counters``."""
        return {
            "capacity": self.queue_capacity,
            "admission": self.admission,
            "max_inflight": self.max_inflight,
            **counters.to_dict(),
        }


@dataclass
class TenantStream:
    """One tenant's arrival stream: the cursor every open loop advances."""

    spec: TenantSpec
    process: ArrivalProcess
    #: The app's kernel names, sorted; requests cycle through them.
    kernels: List[str]
    #: Absolute time of the tenant's next (not yet taken) arrival.
    next_arrival_us: float
    #: Requests taken so far (the arrival-stream cursor).
    count: int = 0

    def take(self, request_id: int) -> Request:
        """The request arriving at :attr:`next_arrival_us`; advances the stream.

        Gaps accumulate from *true* arrival times, so the arrival schedule is
        independent of queueing, segmentation and fleet epochs.
        """
        arrival_us = self.next_arrival_us
        request = Request(
            request_id=request_id,
            tenant=self.spec.name,
            kernel=self.kernels[self.count % len(self.kernels)],
            priority=self.spec.priority,
            arrival_us=arrival_us,
            tenant_index=self.count,
        )
        self.count += 1
        self.next_arrival_us = arrival_us + self.process.next_gap_us()
        return request


#: What a checkpoint field must be: (test, description).
_MAPPING = (lambda value: isinstance(value, Mapping), "a mapping")
_COUNT = (lambda value: type(value) is int and value >= 0, "a non-negative integer")
_NUMBER = (lambda value: type(value) in (int, float), "a number")
_FINITE = (lambda value: type(value) in (int, float) and math.isfinite(value), "finite")


def _field(
    section: Mapping[str, Any], prefix: str, key: str, rule: Tuple[Callable[[Any], bool], str]
) -> Any:
    """``section[key]``; raises a :class:`ValueError` naming ``prefix + key``
    when it is missing or breaks ``rule``."""
    if key not in section:
        raise ValueError(f"serving checkpoint is missing {prefix}{key}")
    valid, kind = rule
    if not valid(section[key]):
        raise ValueError(f"serving checkpoint {prefix}{key} must be {kind}: {section[key]!r}")
    return section[key]


def _check_checkpoint(state: Mapping[str, Any], spec: ServingSpec) -> None:
    """Raise :class:`ValueError` for a checkpoint that cannot continue ``spec``'s run.

    :meth:`GPUSystem.from_scenario` checks the clock's range and the launch
    base; :func:`_restored` reports states that fail to restore.
    """
    if state.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported serving checkpoint schema {state.get('schema')!r}")
    _field(state, "", "clock_us", _NUMBER)
    for key in ("request_seq", "events_processed"):
        _field(state, "", key, _COUNT)
    _field(state, "", "metrics", _MAPPING)
    counters = _field(state, "", "queue_counters", _MAPPING)
    for key in ("arrived", "admitted", "dropped", "backpressure_events", "peak_depth"):
        _field(counters, "queue_counters.", key, _COUNT)
    tenants = _field(state, "", "tenants", _MAPPING)
    expected = sorted(tenant.name for tenant in spec.tenants)
    if sorted(tenants) != expected:
        raise ValueError(f"checkpoint tenants {sorted(tenants)} are not {expected}")
    for name in expected:
        tenant = _field(tenants, "tenants.", name, _MAPPING)
        _field(tenant, f"tenants.{name}.", "process", _MAPPING)
        _field(tenant, f"tenants.{name}.", "next_arrival_us", _FINITE)
        _field(tenant, f"tenants.{name}.", "count", _COUNT)


def _restored(section: str, restore: Callable[[Any], Any], state: Any) -> Any:
    """``restore(state)``, reporting a state that fails to restore as a
    :class:`ValueError` naming ``section``."""
    try:
        return restore(state)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"serving checkpoint {section} cannot be restored: {exc!r}") from exc


class RequestLauncher:
    """Launches queued requests on one system, at most ``max_inflight`` at once.

    It creates one GPU context per tenant, in spec order, and registers as
    the system's ``serving`` component, so its :attr:`observer` slot is wired
    like any component's; it emits the admitted and completed hooks.
    ``on_complete(request, now)`` runs at each completion, before the freed
    launch slot is refilled.
    """

    def __init__(
        self,
        system: GPUSystem,
        spec: ServingSpec,
        suite,
        queue: IngressQueue,
        on_complete: Callable[[Request, float], None],
    ):
        self.system = system
        self.queue = queue
        self.max_inflight = spec.max_inflight
        self.on_complete = on_complete
        #: Requests launched and not yet completed.
        self.inflight = 0
        #: Observer target, kept in sync by ``GPUSystem._rewire_observers``.
        self.observer = None
        system.serving = self
        system._rewire_observers()  # noqa: SLF001 - observers pre-date us
        #: ``{tenant: (context, {kernel name: KernelSpec})}``.
        self.contexts = {
            tenant.name: (
                system.driver.create_context(tenant.name, priority=tenant.priority),
                suite.trace(tenant.app).kernels,
            )
            for tenant in spec.tenants
        }

    def dispatch(self) -> None:
        """Launch queued requests while a launch slot is free."""
        while self.inflight < self.max_inflight:
            request = self.queue.pop()
            if request is None:
                break
            self._launch(request)

    def _launch(self, request: Request) -> None:
        now = self.system.simulator.now
        request.admit_us = now
        context, kernels = self.contexts[request.tenant]
        command = self.system.driver.launch_kernel(
            context, kernels[request.kernel], priority=request.priority
        )
        self.inflight += 1
        if self.observer is not None:
            self.observer.on_request_admitted(request, now)
        command.subscribe_completion(
            lambda done_us, request=request: self._complete(request, done_us)
        )

    def _complete(self, request: Request, now: float) -> None:
        request.complete_us = now
        self.inflight -= 1
        self.on_complete(request, now)
        if self.observer is not None:
            self.observer.on_request_completed(request, now)
        self.dispatch()


class ServingDriver:
    """Executes one serving segment on a fresh :class:`GPUSystem`.

    The driver owns the system: it schedules each tenant stream's arrivals,
    offers them to the ingress queue and hands admission and launches to
    its :class:`RequestLauncher`.  After :meth:`run` returns, :meth:`summary`
    and :meth:`checkpoint` expose the results.
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
            self.queue.counters = _restored(
                "queue_counters", QueueCounters.from_dict, state["queue_counters"]
            )
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
        self.launcher = RequestLauncher(
            self.system, spec, self.suite, self.queue, self._on_complete
        )

        if state:
            self.metrics = _restored("metrics", ServingMetrics.restore, state["metrics"])
            self._request_seq = int(state["request_seq"])
            self._events_before = int(state["events_processed"])
        else:
            self.metrics = spec.new_metrics()
            self._request_seq = 0
            self._events_before = 0

        self._streams = spec.tenant_streams(self.suite)
        if state:
            # Each stream's cursor is restored over its creation-time draw.
            for stream in self._streams:
                name = stream.spec.name
                tstate = state["tenants"][name]
                _restored(f"tenants.{name}.process", stream.process.restore, tstate["process"])
                stream.next_arrival_us = float(tstate["next_arrival_us"])
                stream.count = int(tstate["count"])
                # An arrival past the horizon is never scheduled, so a drained
                # run's final checkpoint may carry one behind its clock.
                if start_us > stream.next_arrival_us <= spec.horizon_us:
                    raise ValueError(
                        f"checkpoint tenant {name!r} has next_arrival_us "
                        f"{stream.next_arrival_us} before clock_us {start_us}"
                    )
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
                _restored("obs", hub.restore, state["obs"])
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
        for stream in self._streams:
            if stream.next_arrival_us <= self.spec.horizon_us:
                self._schedule_arrival(stream)
        if quiesce_at_us is not None:
            sim.schedule(
                max(0.0, float(quiesce_at_us) - sim.now),
                self._on_quiesce_probe,
                label="serving.quiesce",
            )
        self.system.run(max_events=self.scenario.resolved_max_events())
        if self.launcher.inflight or len(self.queue):
            raise RuntimeError(
                "serving segment stopped with work outstanding "
                f"(inflight={self.launcher.inflight}, queued={len(self.queue)})"
            )
        self.complete = not self._stopped_for_checkpoint
        return self

    def _schedule_arrival(self, stream: TenantStream) -> None:
        sim = self.system.simulator
        sim.schedule(
            max(0.0, stream.next_arrival_us - sim.now),
            lambda stream=stream: self._on_arrival(stream),
            label=f"serving.arrival.{stream.spec.name}",
        )

    def _on_arrival(self, stream: TenantStream) -> None:
        request = stream.take(self._request_seq)
        self._request_seq += 1
        if stream.next_arrival_us <= self.spec.horizon_us:
            self._schedule_arrival(stream)
        now = self.system.simulator.now
        observer = self.launcher.observer
        if observer is not None:
            observer.on_request_arrived(request, now)
        dropped = self.queue.offer(request)
        if dropped is not None and observer is not None:
            observer.on_request_dropped(dropped, now)
        self.launcher.dispatch()

    def _on_complete(self, request: Request, now: float) -> None:
        self.metrics.record_completion(
            request.tenant,
            arrival_us=request.arrival_us,
            admit_us=request.admit_us,
            complete_us=now,
        )
        self._maybe_quiesce()

    def _on_quiesce_probe(self) -> None:
        self._quiesce_armed = True
        self._maybe_quiesce()

    def _maybe_quiesce(self) -> None:
        if (
            self._quiesce_armed
            and not self._stopped_for_checkpoint
            and self.launcher.inflight == 0
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
                stream.spec.name: {
                    "process": stream.process.state(),
                    "next_arrival_us": stream.next_arrival_us,
                    "count": stream.count,
                }
                for stream in self._streams
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
            "queue": spec.queue_summary(self.queue.counters),
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
    "TenantStream",
    "ServingSpec",
    "RequestLauncher",
    "ServingDriver",
    "ServingOutcome",
    "run_serving",
]
