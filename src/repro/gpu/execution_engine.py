"""The execution engine: SMs + SM driver + scheduling framework + policy.

This module ties together the substrate pieces (SMs, the SM driver, the
scheduling framework) with the paper's contribution (preemption mechanisms
and scheduling policies).  The engine exposes three interfaces:

* :class:`~repro.gpu.dispatcher.CommandSink` — the command dispatcher pushes
  kernel commands into the engine's per-context command buffers.
* ``ExecutionEngineOps`` (see :mod:`repro.core.policies.base`) — scheduling
  policies admit kernels, set up idle SMs and reserve running SMs.
* ``PreemptionHost`` (see :mod:`repro.core.preemption.base`) — preemption
  mechanisms schedule their latencies and hand back evicted thread blocks.

Preemption is mechanism-per-request: every reservation builds a
:class:`~repro.core.preemption.controller.PreemptionRequest` and asks the
engine's :class:`~repro.core.preemption.controller.PreemptionController`
which mechanism frees *this* SM *this* time.  The engine keeps one bound
instance per mechanism name (created lazily through
:data:`repro.registry.MECHANISMS`) and tracks the in-flight mechanism per SM
so completions, natural block completions and restores route to the
mechanism that actually owns the preemption.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.framework.framework import SchedulingFramework
from repro.core.framework.tables import KernelStatusEntry
from repro.core.policies.base import SchedulingPolicy
from repro.core.preemption.base import PreemptionMechanism
from repro.core.preemption.controller import (
    PreemptionController,
    PreemptionRequest,
    ResidentBlockInfo,
    StaticController,
)
from repro.gpu.command_queue import Command, KernelCommand
from repro.gpu.config import SystemConfig
from repro.gpu.context import ContextTable, GPUContext
from repro.gpu.resources import OccupancyCalculator
from repro.gpu.sm import StreamingMultiprocessor, WaveAnchor
from repro.gpu.sm_driver import SMDriver
from repro.gpu.thread_block import ThreadBlock
from repro.sim.engine import Simulator


class ExecutionEngine:
    """The GPU execution engine with multiprogramming extensions."""

    def __init__(
        self,
        simulator: Simulator,
        config: SystemConfig,
        *,
        policy: SchedulingPolicy,
        mechanism: PreemptionMechanism,
        controller: Optional[PreemptionController] = None,
        context_table: Optional[ContextTable] = None,
    ):
        self._sim = simulator
        self._config = config
        self.policy = policy
        #: Default preemption mechanism: the ``static`` controller's choice
        #: and the fallback for restores whose evicting mechanism is unknown.
        self.mechanism = mechanism
        #: Per-request mechanism selector (default: static = legacy behaviour).
        self.controller = (
            controller
            if controller is not None
            else StaticController(mechanism=mechanism.name)
        )
        #: Bound mechanism instances, keyed by mechanism name.
        self._mechanisms: Dict[str, PreemptionMechanism] = {mechanism.name: mechanism}
        #: SM id -> mechanism handling the SM's in-flight preemption.
        self._inflight_mechanisms: Dict[int, PreemptionMechanism] = {}
        #: Block key -> mechanism that evicted it (consulted for restores).
        self._evicted_by: Dict[Tuple[int, int], PreemptionMechanism] = {}
        self.context_table = context_table if context_table is not None else ContextTable()

        self.controller.bind(self)
        self.framework = SchedulingFramework(config)
        self.occupancy = OccupancyCalculator(config.gpu)
        #: Shared wave-joining anchor: same-instant block completions across
        #: the whole engine may merge into one heap event (see
        #: :class:`~repro.gpu.sm.WaveAnchor`).
        self._wave_anchor = WaveAnchor()
        self._sms: List[StreamingMultiprocessor] = [
            StreamingMultiprocessor(i, config.gpu, simulator, wave_anchor=self._wave_anchor)
            for i in range(config.gpu.num_sms)
        ]
        self.sm_driver = SMDriver(self)
        #: Engine event counts, reported by :meth:`utilization_snapshot`.
        self.stats: Counter = Counter()
        self._backpressure_callbacks: List[Callable[[], None]] = []
        #: Optional instrumentation sink (see :mod:`repro.validation`),
        #: notified of preemption completions and kernel completions; it must
        #: never mutate simulation state.
        self.observer: Optional[object] = None

        policy.bind(self)
        mechanism.bind(self)

    # ------------------------------------------------------------------
    # Properties shared with policies and mechanisms
    # ------------------------------------------------------------------
    @property
    def simulator(self) -> Simulator:
        """The shared discrete-event simulator."""
        return self._sim

    @property
    def system_config(self) -> SystemConfig:
        """The system configuration."""
        return self._config

    @property
    def num_sms(self) -> int:
        """Number of SMs in the execution engine."""
        return len(self._sms)

    def sm(self, sm_id: int) -> StreamingMultiprocessor:
        """The SM with the given id."""
        return self._sms[sm_id]

    def sms(self) -> List[StreamingMultiprocessor]:
        """All SMs (index == sm_id)."""
        return list(self._sms)

    def context_for(self, context_id: int) -> Optional[GPUContext]:
        """Look up a GPU context by id (``None`` if unknown)."""
        return self.context_table.find(context_id)

    # ------------------------------------------------------------------
    # CommandSink interface (used by the command dispatcher)
    # ------------------------------------------------------------------
    def submit(self, command: Command) -> bool:
        """Accept a kernel command into its context's command buffer."""
        if not isinstance(command, KernelCommand):
            raise TypeError("the execution engine only accepts kernel commands")
        accepted = self.framework.buffer_command(command)
        if accepted:
            self.stats["kernel_commands_accepted"] += 1
            self.policy.on_command_buffered(command)
        return accepted

    def register_backpressure_callback(self, callback: Callable[[], None]) -> None:
        """Register a callback invoked whenever a command buffer frees up."""
        self._backpressure_callbacks.append(callback)

    def _notify_backpressure(self) -> None:
        for callback in self._backpressure_callbacks:
            callback()

    # ------------------------------------------------------------------
    # ExecutionEngineOps interface (used by scheduling policies)
    # ------------------------------------------------------------------
    def activate_command(self, command: KernelCommand) -> KernelStatusEntry:
        """Admit a buffered kernel command into the active queue and KSRT."""
        spec = command.launch.spec
        occupancy = self.occupancy.blocks_per_sm(
            spec.usage, max_blocks_hint=spec.max_blocks_per_sm
        )
        entry = self.framework.activate_command(
            command,
            now=self._sim.now,
            blocks_per_sm=occupancy.blocks_per_sm,
            shared_memory_config=occupancy.shared_memory_config,
        )
        self.stats["kernels_activated"] += 1
        if self.observer is not None:
            self.observer.on_kernel_activated(entry)
        # The command buffer for this context is now free: the dispatcher may
        # deliver the next command (e.g. a queued launch from another stream).
        self._notify_backpressure()
        return entry

    def setup_sm(self, sm_id: int, ksr_index: int) -> None:
        """Set up an idle SM for an active kernel (policy operation)."""
        self.sm_driver.setup_sm(sm_id, ksr_index)

    def reserve_sm(self, sm_id: int, next_ksr_index: Optional[int]) -> None:
        """Reserve a running SM for another kernel (policy operation).

        The preemption controller is consulted with a fresh
        :class:`PreemptionRequest`; the chosen mechanism owns this SM's
        preemption until it calls :meth:`preemption_complete`.
        """
        self.framework.mark_sm_reserved(sm_id, next_ksr_index)
        sm = self._sms[sm_id]
        self.stats["sm_reservations"] += 1
        # Request-independent controllers (static) skip the snapshot: the
        # legacy hot path pays no per-preemption bookkeeping it would discard.
        request = (
            self.build_preemption_request(sm_id, next_ksr_index)
            if self.controller.needs_request
            else None
        )
        mechanism = self.mechanism_named(self.controller.select(request))
        self._inflight_mechanisms[sm_id] = mechanism
        self.stats[f"preemptions_via.{mechanism.name}"] += 1
        if self.observer is not None:
            # Before initiate(): observers see the request strictly before
            # any save/complete notification of the same preemption.
            self.observer.on_sm_reserved(sm, next_ksr_index, mechanism)
        mechanism.initiate(sm)

    def update_reservation(self, sm_id: int, next_ksr_index: Optional[int]) -> None:
        """Re-target an in-flight reservation (paper Sec. 3.4 optimisation)."""
        self.framework.update_sm_reservation(sm_id, next_ksr_index)

    # ------------------------------------------------------------------
    # Per-request preemption routing
    # ------------------------------------------------------------------
    def mechanism_named(self, name: str) -> PreemptionMechanism:
        """The bound mechanism instance for ``name`` (created lazily).

        Mechanism names and aliases resolve through
        :data:`repro.registry.MECHANISMS`; every engine keeps at most one
        bound instance per canonical name, shared by all its aliases.
        """
        from repro.registry import MECHANISMS  # local: avoids import cycle

        mechanism = self._mechanisms.get(name)
        if mechanism is not None:
            return mechanism
        canonical = MECHANISMS.canonical_name(name)
        mechanism = self._mechanisms.get(canonical)
        if mechanism is None:
            mechanism = MECHANISMS.create(canonical)
            mechanism.bind(self)
            self._mechanisms[canonical] = mechanism
        # Cache the alias so repeated decisions stay a dict hit.
        self._mechanisms[name] = mechanism
        return mechanism

    def mechanisms(self) -> Dict[str, PreemptionMechanism]:
        """Bound mechanism instances, keyed by canonical name."""
        return {
            name: mechanism
            for name, mechanism in self._mechanisms.items()
            if mechanism.name == name
        }

    def mechanism_for_sm(self, sm_id: int) -> PreemptionMechanism:
        """The mechanism owning the SM's in-flight preemption (or the default)."""
        return self._inflight_mechanisms.get(sm_id, self.mechanism)

    def build_preemption_request(
        self, sm_id: int, next_ksr_index: Optional[int]
    ) -> PreemptionRequest:
        """Snapshot the decision context of one preemption request.

        Pure bookkeeping over the hardware tables — building a request never
        schedules events or mutates model state, so controllers can be
        consulted (and re-consulted, e.g. by tests) without perturbing the
        simulation.
        """
        now = self._sim.now
        framework = self.framework
        gpu = self._config.gpu
        sm = self._sms[sm_id]

        resident: List[ResidentBlockInfo] = []
        save_bytes = 0
        estimated_drain = 0.0
        for block in sm.resident():
            started = block.last_start_time_us if block.last_start_time_us is not None else now
            remaining = max(0.0, block.remaining_time_us - (now - started))
            estimated_drain = max(estimated_drain, remaining)
            state_bytes = 0
            ksr_index = framework.ksr_index_for_launch(block.kernel_launch_id)
            if ksr_index is not None:
                usage = framework.ksr(ksr_index).launch.spec.usage
                state_bytes = usage.state_bytes_per_block
            save_bytes += state_bytes
            resident.append(
                ResidentBlockInfo(
                    kernel_launch_id=block.kernel_launch_id,
                    block_index=block.block_index,
                    estimated_remaining_us=remaining,
                    state_bytes=state_bytes,
                )
            )
        resident.sort(key=lambda info: (info.kernel_launch_id, info.block_index))

        bandwidth = gpu.per_sm_bandwidth_bytes_per_us
        save_time = save_bytes / bandwidth
        incoming_priority = framework.priority_of(next_ksr_index)
        resident_priority = framework.priority_of(framework.sm_entry(sm_id).ksr_index)
        return PreemptionRequest(
            sm_id=sm_id,
            now=now,
            resident=tuple(resident),
            incoming_ksr_index=next_ksr_index,
            incoming_priority=incoming_priority,
            resident_priority=resident_priority,
            estimated_drain_us=estimated_drain,
            save_bytes=save_bytes,
            save_time_us=save_time,
            restore_time_us=save_time,
            pipeline_drain_us=gpu.pipeline_drain_latency_us,
            latency_budget_us=self._config.scheduler.preemption_latency_budget_us,
            config=self._config,
        )

    def restore_latency_us(self, block: ThreadBlock, state_bytes_per_block: int) -> float:
        """Restore cost of a previously preempted block, per its evictor.

        Routed to the mechanism that evicted the block (only the context
        switch produces preempted state today); the engine's default
        mechanism answers when the evictor is unknown, which preserves the
        legacy single-mechanism behaviour exactly.
        """
        mechanism = self._evicted_by.pop(block.key, None)
        if mechanism is None:
            mechanism = self.mechanism
        return mechanism.restore_latency_us(block, state_bytes_per_block)

    # ------------------------------------------------------------------
    # PreemptionHost interface (used by preemption mechanisms)
    # ------------------------------------------------------------------
    def preemption_complete(self, sm_id: int, evicted_blocks: List[ThreadBlock]) -> None:
        """The mechanism finished freeing ``sm_id``."""
        mechanism = self._inflight_mechanisms.pop(sm_id, self.mechanism)
        self.stats["preemptions_completed"] += 1
        if evicted_blocks:
            self.stats["thread_blocks_evicted"] += len(evicted_blocks)
            for block in evicted_blocks:
                self._evicted_by[block.key] = mechanism
        if self.observer is not None:
            self.observer.on_preemption_complete(self._sms[sm_id], evicted_blocks, mechanism)
        self.sm_driver.complete_preemption(sm_id, evicted_blocks)

    # ------------------------------------------------------------------
    # Notifications from the SM driver
    # ------------------------------------------------------------------
    def notify_sm_idle(self, sm_id: int, owner_ksr_index: Optional[int]) -> None:
        """An SM was released to the idle pool; inform the policy."""
        self.stats["sm_idle_events"] += 1
        self.policy.on_sm_idle(sm_id, owner_ksr_index)

    def finish_kernel(self, ksr_index: int) -> None:
        """All thread blocks of an active kernel completed."""
        entry = self.framework.ksr(ksr_index)
        command = self.framework.finish_kernel(ksr_index)
        self.stats["kernels_completed"] += 1
        if self.observer is not None:
            self.observer.on_kernel_finished(entry.launch)
        # Notify the host process and the command dispatcher first (the
        # stream that issued this kernel may immediately issue its next
        # command), then let the policy react to the freed resources.
        command.complete(self._sim.now)
        self.policy.on_kernel_finished(ksr_index, entry)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def utilization_snapshot(self) -> Dict[str, float]:
        """Aggregate utilisation and bookkeeping statistics."""
        now = self._sim.now
        per_sm = [sm.busy_fraction(now) for sm in self._sms]
        out = {name: float(count) for name, count in self.stats.items()}
        out["mean_sm_utilization"] = sum(per_sm) / len(per_sm) if per_sm else 0.0
        out["blocks_executed"] = float(sum(sm.blocks_executed for sm in self._sms))
        out["blocks_preempted"] = float(sum(sm.blocks_preempted for sm in self._sms))
        out["block_completion_events"] = float(
            sum(sm.completion_waves_fired for sm in self._sms)
        )
        out.update({f"framework.{k}": v for k, v in self.framework.snapshot().items()})
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionEngine(sms={self.num_sms}, policy={self.policy.name}, "
            f"controller={self.controller.name}, mechanism={self.mechanism.name})"
        )
