"""The fleet worker: run one GPU's epoch batch to idle, as a pure function.

:func:`execute_epoch` is the unit of work the fleet shards over
:meth:`repro.runner.BatchRunner.map_tasks`.  Its payload and result are
plain JSON-serialisable data, and the function is deterministic, so serial
execution and process-pool execution produce *identical* results — the
fleet's byte-identity guarantee reduces to calling the same function on the
same payloads.

Member GPUs synchronise with the cluster only at epoch boundaries, and every
epoch batch is run to idle, so a GPU's cross-epoch state reduces to its
clock and its launch count (the same quiesce-at-idle reduction the serving
checkpoints use).  Each call rebuilds a fresh system from those two resume
values with :meth:`~repro.system.GPUSystem.from_scenario`, which makes the
epoch split invisible in the results.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.runner import runner_for
from repro.scenario import ScenarioSpec
from repro.serving.driver import ServingSpec
from repro.serving.queue import IngressQueue, Request
from repro.system import GPUSystem


def make_epoch_payload(
    scenario: ScenarioSpec,
    *,
    gpu_id: int,
    clock_us: float,
    launches: int,
    batch: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Assemble one :func:`execute_epoch` payload (plain data only)."""
    return {
        "scenario": scenario.to_dict(),
        "gpu_id": gpu_id,
        "clock_us": clock_us,
        "launches": launches,
        "batch": batch,
    }


class _EpochRun:
    """Drives one epoch batch on one rebuilt GPU system."""

    def __init__(self, payload: Dict[str, Any]):
        # Fleet metrics are sampled centrally at epoch bounds (see
        # ``GPUFleet``), so member systems run without a hub.
        scenario = ScenarioSpec.from_dict({**payload["scenario"], "metrics": None})
        self.scenario = scenario
        self.spec = ServingSpec.from_scenario(scenario)
        self.gpu_id = int(payload["gpu_id"])
        # The runner caches the scaled config and the suite per process:
        # rebuilding the suite per epoch would swamp the simulation work.
        runner = runner_for(scenario)
        self.system = GPUSystem.from_scenario(
            scenario,
            config=runner.config,
            suite=runner.suite,
            start_time_us=float(payload["clock_us"]),
            launch_base=int(payload["launches"]),
        )
        if self.system.telemetry is not None:
            self.system.telemetry.gpu_id = self.gpu_id
        #: Observer target, kept in sync by ``GPUSystem._rewire_observers``.
        self.observer = None
        self.system.serving = self
        self.system._rewire_observers()  # noqa: SLF001 - as ServingDriver does
        self._tenants = self.spec.tenant_contexts(self.system, runner.suite)

        self._batch = [
            Request(
                request_id=int(item["request_id"]),
                tenant=str(item["tenant"]),
                kernel=str(item["kernel"]),
                priority=int(item["priority"]),
                arrival_us=float(item["arrival_us"]),
                tenant_index=int(item["tenant_index"]),
            )
            for item in payload["batch"]
        ]
        # Local dispatch queue: big enough to never drop; preserves the
        # fleet-wide priority-then-FIFO contract among co-located requests.
        self._queue = IngressQueue(
            capacity=max(1, len(self._batch)), admission="block"
        )
        self._inflight = 0
        self._completions: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        sim = self.system.simulator
        for request in self._batch:
            # A request reaches this GPU at its (cluster) arrival time, or
            # immediately if the GPU's clock is already past it.
            sim.schedule(
                max(0.0, request.arrival_us - sim.now),
                lambda request=request: self._on_available(request),
                label=f"fleet.gpu{self.gpu_id}.arrival",
            )
        self.system.run(max_events=self.scenario.resolved_max_events())
        if self._inflight or len(self._queue):
            raise RuntimeError(
                f"fleet epoch stopped with work outstanding on gpu {self.gpu_id} "
                f"(inflight={self._inflight}, queued={len(self._queue)})"
            )
        self._completions.sort(key=lambda c: (c["complete_us"], c["request_id"]))
        result: Dict[str, Any] = {
            "gpu_id": self.gpu_id,
            "clock_us": sim.now,
            "launches": len(self._batch),
            "events_processed": sim.events_processed,
            "completions": self._completions,
            "violations": self.system.violations(),
        }
        if self.system.telemetry is not None:
            result["trace_events"] = [
                event.to_dict() for event in self.system.telemetry.events
            ]
        return result

    def _on_available(self, request: Request) -> None:
        self._queue.offer(request)
        self._dispatch()

    def _dispatch(self) -> None:
        while self._inflight < self.spec.max_inflight:
            request = self._queue.pop()
            if request is None:
                break
            self._launch(request)

    def _launch(self, request: Request) -> None:
        now = self.system.simulator.now
        request.admit_us = now
        context, kernels = self._tenants[request.tenant]
        _, kernel_spec = kernels[request.tenant_index % len(kernels)]
        command = self.system.driver.launch_kernel(
            context, kernel_spec, priority=request.priority
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
        if self.observer is not None:
            self.observer.on_request_completed(request, now)
        self._completions.append(
            {
                "request_id": request.request_id,
                "tenant": request.tenant,
                "arrival_us": request.arrival_us,
                "admit_us": request.admit_us,
                "complete_us": now,
            }
        )
        self._dispatch()


def execute_epoch(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one GPU's epoch batch to idle; pure data in, pure data out."""
    return _EpochRun(payload).run()


__all__ = ["execute_epoch", "make_epoch_payload"]
