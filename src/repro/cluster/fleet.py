"""The multi-GPU fleet: cluster admission, routed epochs, merged metrics.

:class:`GPUFleet` serves one open-loop scenario on ``N`` member GPUs.  The
fleet owns the arrival streams and the cluster-level
:class:`~repro.serving.queue.IngressQueue`; member GPUs interact with the
cluster *only* at epoch boundaries:

1. All arrivals falling inside the epoch are taken from the tenant streams
   (the serving driver's own :class:`~repro.serving.driver.TenantStream`
   cursors, from :meth:`~repro.serving.driver.ServingSpec.tenant_streams`)
   and offered to the cluster queue — fleet-level admission accounting
   happens here, with the queue's drop/drop_oldest/block policies.
2. At the boundary the queue is dispatched in priority-then-FIFO order and
   each request is routed to a member GPU by the scenario's router
   (:data:`repro.registry.ROUTERS`) over epoch-boundary
   :class:`~repro.cluster.routing.GPUView` snapshots.
3. Each GPU runs its batch to idle through the pure
   :func:`~repro.cluster.worker.execute_epoch` function, which launches
   through the serving driver's :class:`~repro.serving.driver.RequestLauncher`
   — serially, or sharded over :meth:`repro.runner.BatchRunner.map_tasks`.
   Because the worker is a pure function of its payload, both paths are
   byte-identical.
4. Completions fold into per-GPU and fleet-level
   :class:`~repro.serving.metrics.ServingMetrics` in a deterministic merge
   order (completion time, then request id).

:func:`run_fleet` is the one-call entry point; the scenario routing in
:class:`repro.workloads.multiprogram.WorkloadRunner` dispatches any scenario
with a ``cluster=`` section here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.cluster.routing import GPUView
from repro.cluster.spec import ClusterSpec
from repro.runner import BatchRunner
from repro.scenario import ScenarioSpec
from repro.serving.driver import ServingSpec
from repro.serving.metrics import ServingMetrics, _round3
from repro.serving.queue import IngressQueue, Request
from repro.telemetry.events import TraceEvent

from repro.cluster.worker import execute_epoch, make_epoch_payload

#: Version tag of the fleet summary payload.
FLEET_SUMMARY_SCHEMA = 1


@dataclass
class _MemberState:
    """Cross-epoch state of one member GPU (the quiesce-at-idle reduction)."""

    view: GPUView
    launches: int = 0
    events_processed: int = 0
    metrics: Optional[ServingMetrics] = None


@dataclass
class FleetOutcome:
    """Everything a finished fleet run produced."""

    scenario: ScenarioSpec
    summary: Dict[str, Any]
    epochs: int
    simulated_time_us: float
    events_processed: int
    validated: bool
    violations: List[Dict]
    trace_events: List[TraceEvent] = field(default_factory=list)
    #: Per-epoch metrics snapshot rows (``None`` when metrics are off).
    metrics_rows: Optional[List[Dict[str, Any]]] = None
    #: Final metric values (``None`` when metrics are off).
    metrics_snapshot: Optional[Dict[str, float]] = None
    #: Hub meta (router, fleet size, ...) for the JSONL exporter header.
    metrics_meta: Optional[Dict[str, Any]] = None


class GPUFleet:
    """Runs one open-loop scenario across ``num_gpus`` member GPUs.

    ``runner`` supplies the process pool the epoch batches shard over
    (:meth:`~repro.runner.BatchRunner.map_tasks`); ``None`` runs every batch
    serially in this process.  Results are byte-identical either way.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        *,
        runner: Optional[BatchRunner] = None,
        suite=None,
    ):
        from repro.workloads.synthetic import SyntheticSuite  # local: avoids cycle

        self.scenario = scenario
        self.spec = ServingSpec.from_scenario(scenario)
        #: What every member GPU runs: fleet metrics are sampled centrally at
        #: epoch bounds (below), so members run without a hub.  Built once and
        #: shipped with every epoch batch, together with ``spec``.
        self._member_scenario = replace(scenario, metrics=None)
        self.cluster = ClusterSpec.from_scenario(scenario)
        self.router = self.cluster.build_router()
        self.runner = runner
        suite = suite if suite is not None else SyntheticSuite(scenario.workload_scale())

        self.queue = IngressQueue(
            capacity=self.spec.queue_capacity, admission=self.spec.admission
        )
        self._request_seq = 0
        self._streams = self.spec.tenant_streams(suite)
        self.metrics = self.spec.new_metrics()
        self._members = [
            _MemberState(view=GPUView(gpu_id=gpu_id), metrics=self.spec.new_metrics())
            for gpu_id in range(self.cluster.num_gpus)
        ]
        self.epochs = 0
        self.violations: List[Dict] = []
        self.trace_events: List[TraceEvent] = []
        self._trace_seq = 0

        #: Metrics hub (``None`` unless the scenario enables metrics).  Fleet
        #: members execute inside worker processes, so the hub samples the
        #: centrally-merged views and cuts one row per epoch boundary — the
        #: fleet's natural snapshot cadence — instead of hooking an engine.
        self.obs = None
        if scenario.metrics is not None:
            from repro.obs import MetricsHub, attach_fleet_metrics  # local: cheap

            hub = MetricsHub.from_spec(scenario.metrics)
            hub.meta.update(
                {
                    "policy": scenario.scheme.policy,
                    "mechanism": scenario.scheme.mechanism,
                    "router": self.cluster.router,
                    "num_gpus": self.cluster.num_gpus,
                }
            )
            attach_fleet_metrics(hub, self)
            self.obs = hub

    # ------------------------------------------------------------------
    # Arrival generation (epoch granularity)
    # ------------------------------------------------------------------
    def _arrivals_until(self, bound_us: float) -> List[Request]:
        """Take every arrival with ``arrival <= bound`` (and horizon)."""
        limit = min(bound_us, self.spec.horizon_us)
        pending: List[Request] = []
        for stream in self._streams:
            while stream.next_arrival_us <= limit:
                pending.append(stream.take(0))  # ids follow the merge sort
        slots = {stream.spec.name: stream.spec.slot for stream in self._streams}
        pending.sort(key=lambda r: (r.arrival_us, slots[r.tenant], r.tenant_index))
        for request in pending:
            request.request_id = self._request_seq
            self._request_seq += 1
        return pending

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_epoch(self) -> List[List[Dict[str, Any]]]:
        """Dispatch the cluster queue and build per-GPU epoch batches."""
        views = [member.view for member in self._members]
        batches: List[List[Dict[str, Any]]] = [[] for _ in self._members]
        while True:
            request = self.queue.pop()
            if request is None:
                break
            gpu_id = self.router.route(request, views)
            if not 0 <= gpu_id < len(views):
                raise ValueError(
                    f"router {self.cluster.router!r} returned invalid gpu "
                    f"{gpu_id!r} for a {len(views)}-GPU fleet"
                )
            view = views[gpu_id]
            view.assigned += 1
            view.tenant_assigned[request.tenant] = (
                view.tenant_assigned.get(request.tenant, 0) + 1
            )
            batches[gpu_id].append(
                {
                    "request_id": request.request_id,
                    "tenant": request.tenant,
                    "kernel": request.kernel,
                    "priority": request.priority,
                    "arrival_us": request.arrival_us,
                    "tenant_index": request.tenant_index,
                }
            )
        return batches

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> "GPUFleet":
        """Run the full horizon, epoch by epoch."""
        horizon = self.spec.horizon_us
        epoch_us = self.cluster.epoch_us
        bounds: List[float] = []
        bound = epoch_us
        while bound < horizon:
            bounds.append(bound)
            bound += epoch_us
        bounds.append(horizon)
        for bound in bounds:
            self._run_epoch(bound)
            if self.obs is not None:
                self.obs.emit_row(bound)
        return self

    def _run_epoch(self, bound_us: float) -> None:
        self.epochs += 1
        for request in self._arrivals_until(bound_us):
            self.queue.offer(request)
        batches = self._route_epoch()
        payloads = [
            make_epoch_payload(
                self._member_scenario,
                self.spec,
                gpu_id=member.view.gpu_id,
                clock_us=member.view.clock_us,
                launches=member.launches,
                batch=batch,
            )
            for member, batch in zip(self._members, batches)
            if batch
        ]
        if not payloads:
            return
        if self.runner is not None:
            results = self.runner.map_tasks(execute_epoch, payloads)
        else:
            results = [execute_epoch(payload) for payload in payloads]
        merged: List[Dict[str, Any]] = []
        epoch_events: List[tuple] = []
        for result in results:
            member = self._members[int(result["gpu_id"])]
            member.view.clock_us = float(result["clock_us"])
            member.launches += int(result["launches"])
            member.events_processed += int(result["events_processed"])
            member.view.completed += len(result["completions"])
            self.violations.extend(result["violations"])
            for completion in result["completions"]:
                member.metrics.record_completion(
                    completion["tenant"],
                    arrival_us=completion["arrival_us"],
                    admit_us=completion["admit_us"],
                    complete_us=completion["complete_us"],
                )
                merged.append(completion)
            for event in result.get("trace_events", ()):
                epoch_events.append(
                    (float(event["time_us"]), int(result["gpu_id"]), event)
                )
        # Merge the epoch's traces time-ordered across GPUs (GPU id breaks
        # same-instant ties; per-GPU order is already chronological) and
        # resequence globally so the fleet trace reads as one timeline.
        epoch_events.sort(key=lambda item: (item[0], item[1]))
        for time_us, _, event in epoch_events:
            self.trace_events.append(
                TraceEvent(
                    seq=self._trace_seq,
                    time_us=time_us,
                    kind=str(event["kind"]),
                    attrs=dict(event["attrs"]),
                )
            )
            self._trace_seq += 1
        # Fleet-level metrics fold in a deterministic merge order: requests
        # are globally unique, so (completion time, request id) totally
        # orders same-instant completions from different GPUs.
        merged.sort(key=lambda c: (c["complete_us"], c["request_id"]))
        for completion in merged:
            self.metrics.record_completion(
                completion["tenant"],
                arrival_us=completion["arrival_us"],
                admit_us=completion["admit_us"],
                complete_us=completion["complete_us"],
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def simulated_time_us(self) -> float:
        """Fleet simulated time: the farthest member clock."""
        return max(member.view.clock_us for member in self._members)

    @property
    def events_processed(self) -> int:
        """Engine events processed across every member GPU and epoch."""
        return sum(member.events_processed for member in self._members)

    def summary(self) -> Dict[str, Any]:
        """JSON-serialisable fleet summary (admission, metrics, per-GPU)."""
        spec = self.spec
        now = self.simulated_time_us
        per_gpu = []
        for member in self._members:
            view = member.view
            per_gpu.append(
                {
                    "gpu_id": view.gpu_id,
                    "clock_us": _round3(view.clock_us),
                    "assigned": view.assigned,
                    "completed": view.completed,
                    "launches": member.launches,
                    "events_processed": member.events_processed,
                    "tenant_assigned": dict(sorted(view.tenant_assigned.items())),
                    "metrics": member.metrics.summary(now_us=view.clock_us),
                }
            )
        return {
            "schema": FLEET_SUMMARY_SCHEMA,
            "horizon_us": _round3(spec.horizon_us),
            "simulated_time_us": _round3(now),
            "num_gpus": self.cluster.num_gpus,
            "router": self.cluster.router,
            "epoch_us": _round3(self.cluster.epoch_us),
            "epochs": self.epochs,
            "queue": spec.queue_summary(self.queue.counters),
            **self.metrics.summary(now_us=now),
            "per_gpu": per_gpu,
        }


def run_fleet(
    scenario: ScenarioSpec,
    *,
    runner: Optional[BatchRunner] = None,
    suite=None,
) -> FleetOutcome:
    """Run a ``cluster=`` scenario across its fleet and collect the outcome.

    ``runner`` shards epoch batches over its worker pool; ``None`` runs
    serially.  Both paths produce byte-identical summaries.
    """
    fleet = GPUFleet(scenario, runner=runner, suite=suite).run()
    return FleetOutcome(
        scenario=scenario,
        summary=fleet.summary(),
        epochs=fleet.epochs,
        simulated_time_us=fleet.simulated_time_us,
        events_processed=fleet.events_processed,
        validated=scenario.validate,
        violations=fleet.violations,
        trace_events=fleet.trace_events,
        metrics_rows=None if fleet.obs is None else list(fleet.obs.rows),
        metrics_snapshot=None if fleet.obs is None else fleet.obs.registry.snapshot(),
        metrics_meta=None if fleet.obs is None else dict(fleet.obs.meta),
    )


__all__ = ["GPUFleet", "FleetOutcome", "run_fleet", "FLEET_SUMMARY_SCHEMA"]
