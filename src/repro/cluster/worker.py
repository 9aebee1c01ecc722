"""The fleet worker: run one GPU's epoch batch to idle, as a pure function.

:func:`execute_epoch` is the unit of work the fleet shards over
:meth:`repro.runner.BatchRunner.map_tasks`.  Its payload is picklable (the
member scenario and its parsed :class:`~repro.serving.driver.ServingSpec`,
which the fleet builds once, plus plain data), its result is plain
JSON-serialisable data, and the function is deterministic, so serial
execution and process-pool execution produce *identical* results — the
fleet's byte-identity guarantee reduces to calling the same function on the
same payloads.

Member GPUs synchronise with the cluster only at epoch boundaries, and every
epoch batch is run to idle, so a GPU's cross-epoch state reduces to its
clock and its launch count (the same quiesce-at-idle reduction the serving
checkpoints use).  Each call rebuilds a fresh system from those two resume
values with :meth:`~repro.system.GPUSystem.from_scenario`, which makes the
epoch split invisible in the results.  Requests reach the GPU at their
cluster arrival times and launch through the serving driver's
:class:`~repro.serving.driver.RequestLauncher`; the worker only records each
completion.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.runner import runner_for
from repro.scenario import ScenarioSpec
from repro.serving.driver import RequestLauncher, ServingSpec
from repro.serving.queue import IngressQueue, Request
from repro.system import GPUSystem


def make_epoch_payload(
    scenario: ScenarioSpec,
    spec: ServingSpec,
    *,
    gpu_id: int,
    clock_us: float,
    launches: int,
    batch: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Assemble one :func:`execute_epoch` payload.

    ``scenario`` is what a member GPU runs and ``spec`` its parsed serving
    spec; every batch carries the same two objects, so no epoch re-parses
    the scenario.
    """
    return {
        "scenario": scenario,
        "spec": spec,
        "gpu_id": gpu_id,
        "clock_us": clock_us,
        "launches": launches,
        "batch": batch,
    }


class _EpochRun:
    """Drives one epoch batch on one rebuilt GPU system."""

    def __init__(self, payload: Dict[str, Any]):
        self.scenario = scenario = payload["scenario"]
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
        self._batch = [Request(**item) for item in payload["batch"]]
        # Local dispatch queue: big enough to never drop; preserves the
        # fleet-wide priority-then-FIFO contract among co-located requests.
        queue = IngressQueue(capacity=max(1, len(self._batch)), admission="block")
        self.launcher = RequestLauncher(
            self.system,
            payload["spec"],
            runner.suite,
            queue,
            self._on_complete,
        )
        self._completions: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        sim = self.system.simulator
        launcher = self.launcher
        for request in self._batch:
            # A request reaches this GPU at its (cluster) arrival time, or
            # immediately if the GPU's clock is already past it.
            sim.schedule(
                max(0.0, request.arrival_us - sim.now),
                lambda request=request: self._on_available(request),
                label=f"fleet.gpu{self.gpu_id}.arrival",
            )
        self.system.run(max_events=self.scenario.resolved_max_events())
        if launcher.inflight or len(launcher.queue):
            raise RuntimeError(
                f"fleet epoch stopped with work outstanding on gpu {self.gpu_id} "
                f"(inflight={launcher.inflight}, queued={len(launcher.queue)})"
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
        self.launcher.queue.offer(request)
        self.launcher.dispatch()

    def _on_complete(self, request: Request, now: float) -> None:
        self._completions.append(
            {
                "request_id": request.request_id,
                "tenant": request.tenant,
                "arrival_us": request.arrival_us,
                "admit_us": request.admit_us,
                "complete_us": now,
            }
        )


def execute_epoch(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one GPU's epoch batch to idle; pure data in, pure data out."""
    return _EpochRun(payload).run()


__all__ = ["execute_epoch", "make_epoch_payload"]
