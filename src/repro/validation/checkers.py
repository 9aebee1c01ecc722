"""The built-in invariant checkers.

Each checker asserts one family of conservation laws the simulator must obey
under *any* workload (hand-written, Parboil, or fuzzer-generated):

* :class:`BlockAccountingChecker` — every launched thread block completes
  exactly once; finished kernels completed exactly their grid size.
* :class:`OccupancyChecker` — SM residency never exceeds the
  :class:`~repro.gpu.config.SystemConfig` register / shared-memory / thread /
  block limits, and resident blocks belong to the kernel the SM is set up for.
* :class:`PreemptionChecker` — context-switch state saved equals state
  restored (plus what is still waiting in PTBQs), draining never produces
  evicted state, and preempted SMs are empty before reassignment.
* :class:`DispatchChecker` — each hardware queue has at most one in-flight
  command (stream serialisation).
* :class:`MetricsChecker` — per-process iteration records are internally
  consistent (turnaround ≥ executed CPU time ≥ 0, iterations ordered).

All checkers only *observe*; they record violations instead of raising so a
single run reports every broken invariant.  Simulation time needs no
checker: the engine itself raises rather than schedule or fire an event in
the past (:mod:`repro.sim.engine`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.gpu.thread_block import ThreadBlockState
from repro.validation.base import InvariantChecker

#: Tolerance for floating-point time comparisons (µs).
TIME_EPS = 1e-9
#: Tolerance for accumulated duration comparisons (µs).
DURATION_EPS = 1e-6

BlockKey = Tuple[int, int]


class BlockAccountingChecker(InvariantChecker):
    """Every launched thread block completes exactly once."""

    name = "block_accounting"

    def __init__(self) -> None:
        super().__init__()
        self._completed: Set[BlockKey] = set()
        self._completions_per_launch: Dict[int, int] = {}
        self._grid_sizes: Dict[int, int] = {}

    def _note_grid_size(self, launch_id: int) -> Optional[int]:
        size = self._grid_sizes.get(launch_id)
        if size is None:
            framework = self.system.execution_engine.framework
            ksr_index = framework.ksr_index_for_launch(launch_id)
            if ksr_index is not None:
                size = framework.ksr(ksr_index).launch.spec.num_thread_blocks
                self._grid_sizes[launch_id] = size
        return size

    def on_block_started(self, sm, block) -> None:
        if block.key in self._completed:
            self.record(
                "block_restarted_after_completion",
                f"block {block.key} started on SM{sm.sm_id} after completing",
            )
        self._note_grid_size(block.kernel_launch_id)

    def on_block_completed(self, sm, block) -> None:
        if block.key in self._completed:
            self.record(
                "block_completed_twice",
                f"block {block.key} completed twice (second time on SM{sm.sm_id})",
            )
            return
        self._completed.add(block.key)
        launch_id = block.kernel_launch_id
        count = self._completions_per_launch.get(launch_id, 0) + 1
        self._completions_per_launch[launch_id] = count
        size = self._note_grid_size(launch_id)
        if size is not None and count > size:
            self.record(
                "more_completions_than_grid",
                f"launch {launch_id}: {count} block completions exceed grid size {size}",
            )
        if block.block_index >= (size if size is not None else block.block_index + 1):
            self.record(
                "block_index_out_of_grid",
                f"launch {launch_id}: completed block index {block.block_index} "
                f"outside grid of {size}",
            )

    def on_kernel_finished(self, launch) -> None:
        expected = launch.spec.num_thread_blocks
        observed = self._completions_per_launch.get(launch.launch_id, 0)
        if observed != expected:
            self.record(
                "kernel_finished_incomplete",
                f"kernel {launch.describe()} finished with {observed} observed block "
                f"completions, expected exactly {expected}",
            )
        if launch.completed_blocks != expected:
            self.record(
                "kernel_completion_count_mismatch",
                f"kernel {launch.describe()} reports {launch.completed_blocks} completed "
                f"blocks, expected {expected}",
            )


class OccupancyChecker(InvariantChecker):
    """Residency never exceeds the configured per-SM hardware limits."""

    name = "occupancy"

    def on_block_started(self, sm, block) -> None:
        config = self.system.config.gpu
        framework = self.system.execution_engine.framework
        ksr_index = sm.ksr_index
        if not framework.ksr_valid(ksr_index):
            self.record(
                "block_on_unconfigured_sm",
                f"block {block.key} started on SM{sm.sm_id} with no valid kernel",
            )
            return
        launch = framework.ksr(ksr_index).launch
        if launch.launch_id != block.kernel_launch_id:
            self.record(
                "block_kernel_mismatch",
                f"block {block.key} started on SM{sm.sm_id} set up for launch "
                f"{launch.launch_id}",
            )
            return
        usage = launch.spec.usage
        resident = sm.resident_blocks
        if resident > config.max_thread_blocks_per_sm:
            self.record(
                "block_limit_exceeded",
                f"SM{sm.sm_id}: {resident} resident blocks exceed the hardware limit "
                f"of {config.max_thread_blocks_per_sm}",
            )
        if resident > sm.max_resident_blocks:
            self.record(
                "kernel_occupancy_exceeded",
                f"SM{sm.sm_id}: {resident} resident blocks exceed the kernel's "
                f"occupancy of {sm.max_resident_blocks}",
            )
        if resident * usage.registers_per_block > config.registers_per_sm:
            self.record(
                "register_limit_exceeded",
                f"SM{sm.sm_id}: {resident} x {usage.registers_per_block} registers "
                f"exceed the register file of {config.registers_per_sm}",
            )
        if resident * usage.shared_memory_per_block > sm.shared_memory_config:
            self.record(
                "shared_memory_limit_exceeded",
                f"SM{sm.sm_id}: {resident} x {usage.shared_memory_per_block} B shared "
                f"memory exceed the configured partition of {sm.shared_memory_config} B",
            )
        if resident * usage.threads_per_block > config.max_threads_per_sm:
            self.record(
                "thread_limit_exceeded",
                f"SM{sm.sm_id}: {resident} x {usage.threads_per_block} threads exceed "
                f"the limit of {config.max_threads_per_sm}",
            )


class PreemptionChecker(InvariantChecker):
    """Preempted state balances and preempted SMs are empty when reassigned."""

    name = "preemption"

    def __init__(self) -> None:
        super().__init__()
        self.saved_bytes = 0
        self.restored_bytes = 0
        self._pending: Dict[BlockKey, int] = {}

    @property
    def outstanding_bytes(self) -> int:
        """Saved state of blocks still waiting in PTBQs (not yet restored)."""
        return sum(self._pending.values())

    def _state_bytes(self, launch_id: int) -> Optional[int]:
        framework = self.system.execution_engine.framework
        ksr_index = framework.ksr_index_for_launch(launch_id)
        if ksr_index is None:
            return None
        return framework.ksr(ksr_index).launch.spec.usage.state_bytes_per_block

    def on_blocks_evicted(self, sm, blocks) -> None:
        for block in blocks:
            if block.state is not ThreadBlockState.PREEMPTED:
                self.record(
                    "evicted_block_not_preempted",
                    f"block {block.key} evicted from SM{sm.sm_id} in state "
                    f"{block.state.value}",
                )
            if block.key in self._pending:
                self.record(
                    "block_evicted_twice",
                    f"block {block.key} evicted again before being restored",
                )
                continue
            state_bytes = self._state_bytes(block.kernel_launch_id)
            if state_bytes is None:
                self.record(
                    "evicted_block_without_kernel",
                    f"block {block.key} evicted from SM{sm.sm_id} but belongs to no "
                    "active kernel",
                )
                continue
            self.saved_bytes += state_bytes
            self._pending[block.key] = state_bytes

    def on_block_started(self, sm, block) -> None:
        state_bytes = self._pending.pop(block.key, None)
        if state_bytes is not None:
            self.restored_bytes += state_bytes

    def on_preemption_complete(self, sm, evicted_blocks, mechanism) -> None:
        mechanism_name = getattr(mechanism, "name", str(mechanism))
        if mechanism_name == "draining" and evicted_blocks:
            self.record(
                "draining_saved_state",
                f"draining preemption of SM{sm.sm_id} returned "
                f"{len(evicted_blocks)} evicted blocks (draining must save nothing)",
            )
        if not sm.is_empty:
            self.record(
                "preempted_sm_not_empty",
                f"preemption of SM{sm.sm_id} completed with {sm.resident_blocks} "
                "blocks still resident",
            )

    def on_sm_configured(self, sm) -> None:
        if not sm.is_empty:
            self.record(
                "sm_reassigned_non_empty",
                f"SM{sm.sm_id} configured for KSR {sm.ksr_index} with "
                f"{sm.resident_blocks} blocks still resident",
            )

    def finalize(self, system) -> None:
        outstanding = self.outstanding_bytes
        if self.saved_bytes != self.restored_bytes + outstanding:
            self.record(
                "saved_restored_mismatch",
                f"context-switch state saved ({self.saved_bytes} B) != restored "
                f"({self.restored_bytes} B) + outstanding in PTBQs ({outstanding} B)",
            )


class DispatchChecker(InvariantChecker):
    """Each hardware queue keeps at most one command in flight."""

    name = "dispatch"

    def __init__(self) -> None:
        super().__init__()
        self._inflight: Dict[int, int] = {}

    def on_command_issued(self, queue_id, command) -> None:
        busy = self._inflight.get(queue_id)
        if busy is not None:
            self.record(
                "queue_issued_while_busy",
                f"queue {queue_id} issued command {command.command_id} while command "
                f"{busy} was still in flight",
            )
        self._inflight[queue_id] = command.command_id

    def on_command_completed(self, queue_id, command_id) -> None:
        busy = self._inflight.pop(queue_id, None)
        if busy is not None and busy != command_id:
            self.record(
                "queue_completion_mismatch",
                f"queue {queue_id} completed command {command_id} but command "
                f"{busy} was in flight",
            )


class MetricsChecker(InvariantChecker):
    """Per-process iteration records are internally consistent."""

    name = "metrics"

    def finalize(self, system) -> None:
        for process in system.processes:
            cpu_floor = process.trace.total_cpu_time_us
            previous_end: Optional[float] = None
            for record in process.iterations:
                if record.start_time_us < -TIME_EPS:
                    self.record(
                        "negative_start_time",
                        f"{process.name} iteration {record.index} starts at "
                        f"{record.start_time_us}",
                        time_us=record.start_time_us,
                    )
                if record.end_time_us < record.start_time_us - TIME_EPS:
                    self.record(
                        "iteration_ends_before_start",
                        f"{process.name} iteration {record.index} ends at "
                        f"{record.end_time_us} before its start {record.start_time_us}",
                        time_us=record.end_time_us,
                    )
                if record.duration_us + DURATION_EPS < cpu_floor:
                    self.record(
                        "turnaround_below_execution",
                        f"{process.name} iteration {record.index} turnaround "
                        f"{record.duration_us:.3f}us is below its serial CPU execution "
                        f"time {cpu_floor:.3f}us",
                        time_us=record.end_time_us,
                    )
                if previous_end is not None and record.start_time_us < previous_end - TIME_EPS:
                    self.record(
                        "iterations_overlap",
                        f"{process.name} iteration {record.index} starts at "
                        f"{record.start_time_us} before iteration {record.index - 1} "
                        f"ended at {previous_end}",
                        time_us=record.start_time_us,
                    )
                previous_end = record.end_time_us


def default_checkers() -> List[InvariantChecker]:
    """One fresh instance of every built-in checker."""
    return [
        BlockAccountingChecker(),
        OccupancyChecker(),
        PreemptionChecker(),
        DispatchChecker(),
        MetricsChecker(),
    ]
