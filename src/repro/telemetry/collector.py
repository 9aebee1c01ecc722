"""The trace collector: an observer turning instrumentation hooks into events.

:class:`TraceCollector` attaches to a :class:`~repro.system.GPUSystem`
through the same observer points the validation layer uses
(:meth:`~repro.system.GPUSystem.install_observer`) and records a typed
:class:`~repro.telemetry.events.TraceEvent` stream: kernel lifecycle, block
dispatch/finish (with per-SM residency), the full preemption lifecycle
(request → save → restore / drain-complete) with the observed latency, DMA
transfers and host CPU phases.

The collector is a pure observer — a traced run is byte-identical to an
untraced one — and it implements none of the simulator's high-rate per-event
hooks, so it is never wired to them: its cost is one method call plus one
dataclass append per *model-level* event.

Identifiers are normalised to run-local dense indices (see
:meth:`TraceCollector._command_ref`), so the trace of a scenario does not
depend on what else ran earlier in the same process; serial and parallel
batch runs export byte-identical artifacts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.observers import BaseObserver
from repro.telemetry import events as ev
from repro.telemetry.events import TraceEvent


class TraceCollector(BaseObserver):
    """Records structured trace events from a running system."""

    def __init__(self, *, gpu_id: Optional[int] = None) -> None:
        #: Fleet member id stamped on every event (``None`` = single-GPU run,
        #: events stay untagged).  Set by the cluster layer so merged fleet
        #: traces remain attributable to their originating GPU.
        self.gpu_id = gpu_id
        #: The recorded events, in emission (= simulation) order.
        self.events: List[TraceEvent] = []
        self._seq = 0
        self._system = None
        self._sim = None
        #: Global command id -> (run-local id, engine, static attrs).
        self._commands: Dict[int, Tuple[int, str, Dict[str, Any]]] = {}
        #: SM id -> (request time, mechanism name) of the in-flight preemption.
        self._preempt_requests: Dict[int, Tuple[float, str]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, system) -> None:
        """Install the collector on every instrumented component of ``system``."""
        if self._system is not None:
            raise RuntimeError("the TraceCollector is already attached")
        self._system = system
        self._sim = system.simulator
        system.install_observer(self)
        if getattr(system, "telemetry", None) is None:
            system.telemetry = self

    def detach(self) -> None:
        """Remove the collector's hooks; recorded events stay readable.

        A detached collector can be attached again (to the same system or a
        fresh one); events keep accumulating in the same stream.  ``_sim`` is
        kept so :meth:`summary` stays usable after detaching.
        """
        if self._system is None:
            raise RuntimeError("cannot detach an unattached TraceCollector")
        self._system.uninstall_observer(self)
        if getattr(self._system, "telemetry", None) is self:
            self._system.telemetry = None
        self._system = None

    @property
    def attached(self) -> bool:
        """Whether the collector has been attached to a system."""
        return self._system is not None

    @property
    def num_events(self) -> int:
        """Number of recorded events."""
        return len(self.events)

    def _emit(self, kind: str, **attrs: Any) -> None:
        if self.gpu_id is not None:
            attrs["gpu"] = self.gpu_id
        self.events.append(
            TraceEvent(seq=self._seq, time_us=self._sim.now, kind=kind, attrs=attrs)
        )
        self._seq += 1

    # ------------------------------------------------------------------
    # Run-local identifier normalisation
    # ------------------------------------------------------------------
    def _command_ref(self, command) -> Tuple[int, str, Dict[str, Any]]:
        """Run-local id + engine + static attrs for a command (dense, stable)."""
        ref = self._commands.get(command.command_id)
        if ref is None:
            local_id = len(self._commands)
            if command.engine == "transfer":
                attrs: Dict[str, Any] = {
                    "bytes": command.size_bytes,
                    "direction": command.direction.value,
                }
            else:
                launch = command.launch
                attrs = {
                    "kernel": launch.spec.qualified_name,
                    "launch": launch.launch_id,
                    "blocks": launch.spec.num_thread_blocks,
                }
            attrs["process"] = command.process_name
            attrs["stream"] = command.stream_id
            ref = (local_id, command.engine, attrs)
            self._commands[command.command_id] = ref
        return ref

    # ------------------------------------------------------------------
    # Dispatcher hooks (kernel/transfer queueing)
    # ------------------------------------------------------------------
    def on_command_enqueued(self, queue_id, command) -> None:
        local_id, engine, attrs = self._command_ref(command)
        kind = ev.KERNEL_ENQUEUE if engine == "execution" else ev.TRANSFER_ENQUEUE
        self._emit(kind, cmd=local_id, queue=queue_id, **attrs)

    def on_command_issued(self, queue_id, command) -> None:
        local_id, engine, attrs = self._command_ref(command)
        kind = ev.KERNEL_ISSUE if engine == "execution" else ev.TRANSFER_START
        self._emit(kind, cmd=local_id, queue=queue_id, **attrs)

    def on_command_completed(self, queue_id, command_id) -> None:
        ref = self._commands.get(command_id)
        if ref is None:  # pragma: no cover - command enqueued before attach
            return
        local_id, engine, attrs = ref
        # Kernel completion is reported by on_kernel_finished (with richer
        # context); only transfers complete through the dispatcher hook.
        if engine == "transfer":
            self._emit(ev.TRANSFER_COMPLETE, cmd=local_id, queue=queue_id, **attrs)

    # ------------------------------------------------------------------
    # Execution-engine hooks (kernel lifecycle, preemption)
    # ------------------------------------------------------------------
    def on_kernel_activated(self, entry) -> None:
        launch = entry.launch
        self._emit(
            ev.KERNEL_LAUNCH,
            launch=launch.launch_id,
            kernel=launch.spec.qualified_name,
            process=launch.process_name,
            blocks=launch.spec.num_thread_blocks,
            blocks_per_sm=entry.blocks_per_sm,
        )

    def on_kernel_finished(self, launch) -> None:
        self._emit(
            ev.KERNEL_COMPLETE,
            launch=launch.launch_id,
            kernel=launch.spec.qualified_name,
            process=launch.process_name,
        )

    def on_sm_reserved(self, sm, next_ksr_index, mechanism) -> None:
        # The mechanism is chosen per request by the engine's preemption
        # controller; the span is tagged with that choice, not a system-wide
        # mechanism.
        name = mechanism.name
        self._preempt_requests[sm.sm_id] = (self._sim.now, name)
        self._emit(
            ev.PREEMPT_REQUEST,
            sm=sm.sm_id,
            mechanism=name,
            resident=sm.resident_blocks,
        )

    def on_blocks_evicted(self, sm, blocks) -> None:
        self._emit(ev.PREEMPT_SAVE_START, sm=sm.sm_id, evicted=len(blocks))

    def on_preemption_complete(self, sm, evicted_blocks, mechanism) -> None:
        request = self._preempt_requests.pop(sm.sm_id, None)
        attrs: Dict[str, Any] = {
            "sm": sm.sm_id,
            "mechanism": mechanism.name,
            "evicted": len(evicted_blocks),
        }
        if request is not None:
            attrs["latency_us"] = self._sim.now - request[0]
        self._emit(ev.PREEMPT_COMPLETE, **attrs)

    # ------------------------------------------------------------------
    # SM hooks (block residency, occupancy deltas)
    # ------------------------------------------------------------------
    def on_block_started(self, sm, block) -> None:
        kind = ev.BLOCK_RESTORE if block.preemption_count > 0 else ev.BLOCK_START
        self._emit(
            kind,
            sm=sm.sm_id,
            launch=block.kernel_launch_id,
            block=block.block_index,
            resident=sm.resident_blocks,
        )

    def on_block_completed(self, sm, block) -> None:
        self._emit(
            ev.BLOCK_FINISH,
            sm=sm.sm_id,
            launch=block.kernel_launch_id,
            block=block.block_index,
            resident=sm.resident_blocks,
        )

    def on_sm_configured(self, sm) -> None:
        self._emit(ev.SM_CONFIGURED, sm=sm.sm_id, ksr=sm.ksr_index)

    def on_sm_released(self, sm) -> None:
        self._emit(ev.SM_RELEASED, sm=sm.sm_id)

    # ------------------------------------------------------------------
    # Host CPU hooks
    # ------------------------------------------------------------------
    def on_cpu_phase_started(self, duration_us, label) -> None:
        self._emit(ev.CPU_PHASE_START, label=label, duration_us=duration_us)

    def on_cpu_phase_finished(self, label) -> None:
        self._emit(ev.CPU_PHASE_END, label=label)

    # ------------------------------------------------------------------
    # Open-loop serving hooks (request lifecycle)
    # ------------------------------------------------------------------
    def on_request_arrived(self, request, now) -> None:
        self._emit(
            ev.REQUEST_ARRIVAL,
            request=request.request_id,
            tenant=request.tenant,
            kernel=request.kernel,
            priority=request.priority,
            arrival_us=request.arrival_us,
        )

    def on_request_admitted(self, request, now) -> None:
        self._emit(
            ev.REQUEST_ADMIT,
            request=request.request_id,
            tenant=request.tenant,
            queue_delay_us=now - request.arrival_us,
        )

    def on_request_completed(self, request, now) -> None:
        self._emit(
            ev.REQUEST_COMPLETE,
            request=request.request_id,
            tenant=request.tenant,
            latency_us=now - request.arrival_us,
            service_us=now - request.admit_us,
        )

    def on_request_dropped(self, request, now) -> None:
        self._emit(
            ev.REQUEST_DROP,
            request=request.request_id,
            tenant=request.tenant,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-serialisable summary of the recorded stream.

        Thin wrapper over :func:`repro.telemetry.analytics.summarize`, bound
        to this collector's events and current simulation time.
        """
        from repro.telemetry.analytics import summarize  # local: avoids cycle

        now = self._sim.now if self._sim is not None else 0.0
        return summarize(self.events, now_us=now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "attached" if self.attached else "detached"
        return f"TraceCollector({state}, events={len(self.events)})"


__all__ = ["TraceCollector"]
