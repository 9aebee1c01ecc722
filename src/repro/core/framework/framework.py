"""The scheduling framework facade.

:class:`SchedulingFramework` bundles the hardware tables (command buffers,
active queue, KSRT, SMST, PTBQ) behind the operations that scheduling
policies and the SM driver need: buffering and activating kernel commands,
tracking SM state, and storing/retrieving preempted thread blocks.

The framework itself contains **no policy decisions** — it only enforces the
capacity and consistency rules of the hardware structures, exactly as the
paper separates mechanism from policy.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.core.framework.command_buffer import CommandBufferSet
from repro.core.framework.tables import (
    ActiveQueue,
    KernelStatusEntry,
    KernelStatusRegisterTable,
    PreemptedThreadBlockQueue,
    SMStatusEntry,
    SMStatusTable,
)
from repro.gpu.command_queue import KernelCommand
from repro.gpu.config import SystemConfig
from repro.gpu.kernel import KernelState
from repro.gpu.sm import SMState
from repro.gpu.thread_block import ThreadBlock


def policy_key(entry: KernelStatusEntry) -> Tuple[int, float, int]:
    """Policy order of active kernels: descending priority, then activation
    time, then KSR index (unique among active kernels, so the order is total).
    """
    return (-entry.priority, entry.activation_time_us, entry.index)


class SchedulingFramework:
    """Bookkeeping shared by scheduling policies and the SM driver."""

    def __init__(self, config: SystemConfig, *, num_sms: Optional[int] = None):
        self.config = config
        self.num_sms = num_sms if num_sms is not None else config.gpu.num_sms
        active_limit = config.scheduler.active_kernel_limit(self.num_sms)

        self.command_buffers = CommandBufferSet()
        self.active_queue = ActiveQueue(active_limit)
        self.ksrt = KernelStatusRegisterTable(active_limit)
        self.smst = SMStatusTable(self.num_sms)
        ptbq_capacity = self.num_sms * config.gpu.max_thread_blocks_per_sm
        self._ptbqs: Dict[int, PreemptedThreadBlockQueue] = {
            index: PreemptedThreadBlockQueue(ptbq_capacity) for index in range(active_limit)
        }
        #: Commands of active kernels, keyed by launch id, so the engine can
        #: notify command completion when the kernel finishes.
        self._commands_by_launch: Dict[int, KernelCommand] = {}
        #: Active KSR entries sorted by :func:`policy_key` (see policy_order).
        self._policy_order: Tuple[KernelStatusEntry, ...] = ()
        #: Table event counts, reported by :meth:`snapshot`.
        self.stats: Counter = Counter()

    # ------------------------------------------------------------------
    # Command buffers
    # ------------------------------------------------------------------
    def buffer_command(self, command: KernelCommand) -> bool:
        """Store a kernel command in its context's command buffer."""
        accepted = self.command_buffers.offer(command)
        if accepted:
            self.stats["commands_buffered"] += 1
        return accepted

    def pending_commands(self) -> List[KernelCommand]:
        """Buffered commands not yet admitted, oldest first."""
        return self.command_buffers.pending()

    @property
    def has_pending_commands(self) -> bool:
        """Whether any command waits in a command buffer (O(1))."""
        return self.command_buffers.has_pending

    # ------------------------------------------------------------------
    # Activation / completion
    # ------------------------------------------------------------------
    @property
    def has_active_capacity(self) -> bool:
        """Whether another kernel may be admitted to the active queue (O(1))."""
        return self.active_queue.has_space and self.ksrt.has_free_entry

    def activate_command(
        self,
        command: KernelCommand,
        *,
        now: float,
        blocks_per_sm: int,
        shared_memory_config: int,
    ) -> KernelStatusEntry:
        """Admit a buffered command: allocate a KSR and an active-queue slot.

        The caller (a scheduling policy) supplies the kernel's occupancy,
        which the SM driver computed from the kernel's resource usage; it is
        cached in the KSR entry so SM setup does not recompute it.
        """
        if not self.has_active_capacity:
            raise RuntimeError("cannot activate a kernel: the active queue is full")
        buffered = self.command_buffers.peek(command.context_id)
        if buffered is not command:
            raise ValueError("command is not at the head of its context's command buffer")
        self.command_buffers.take(command.context_id)

        launch = command.launch
        entry = self.ksrt.allocate(launch, activation_time_us=now)
        entry.blocks_per_sm = blocks_per_sm
        entry.shared_memory_config = shared_memory_config
        self.active_queue.push(entry.index)
        order = self._policy_order
        position = bisect_left(order, policy_key(entry), key=policy_key)
        self._policy_order = order[:position] + (entry,) + order[position:]
        self._ptbqs[entry.index].clear()
        self._commands_by_launch[launch.launch_id] = command
        launch.state = KernelState.ACTIVE
        launch.activation_time_us = now
        self.stats["kernels_activated"] += 1
        return entry

    def finish_kernel(self, ksr_index: int) -> KernelCommand:
        """Free the KSR entry and active-queue slot of a finished kernel.

        Returns the kernel command so the engine can notify its completion
        listeners (host process and command dispatcher).
        """
        entry = self.ksrt.get(ksr_index)
        if not entry.launch.all_blocks_completed:
            raise RuntimeError(
                f"finish_kernel called for {entry.launch.describe()} before all blocks completed"
            )
        if not self._ptbqs[ksr_index].empty:  # pragma: no cover - defensive
            raise RuntimeError("finished kernel still has preempted thread blocks")
        self.active_queue.remove(ksr_index)
        order = self._policy_order
        position = bisect_left(order, policy_key(entry), key=policy_key)
        self._policy_order = order[:position] + order[position + 1 :]
        self.ksrt.free(ksr_index)
        command = self._commands_by_launch.pop(entry.launch.launch_id)
        self.stats["kernels_finished"] += 1
        return command

    # ------------------------------------------------------------------
    # KSRT queries
    # ------------------------------------------------------------------
    def ksr(self, index: int) -> KernelStatusEntry:
        """The valid KSR entry at ``index``."""
        return self.ksrt.get(index)

    def ksr_valid(self, index: Optional[int]) -> bool:
        """Whether ``index`` refers to a valid (active) kernel."""
        return self.ksrt.is_valid(index)

    def active_entries(self) -> List[KernelStatusEntry]:
        """Valid KSR entries in activation (active-queue) order."""
        return [self.ksrt.get(index) for index in self.active_queue]

    @property
    def policy_order(self) -> Tuple[KernelStatusEntry, ...]:
        """Valid KSR entries in policy order (see :func:`policy_key`).

        Kept on activation and finish rather than sorted per query.  The
        tuple is replaced on each change, so iterating a returned value
        stays safe while a nested scheduling tick activates or finishes
        kernels.
        """
        return self._policy_order

    def ksr_index_for_launch(self, launch_id: int) -> Optional[int]:
        """KSR index currently tracking the given kernel launch."""
        return self.ksrt.index_for_launch(launch_id)

    def priority_of(self, ksr_index: Optional[int]) -> Optional[int]:
        """Scheduling priority of the kernel at ``ksr_index`` (or ``None``).

        Used by the execution engine when it snapshots a
        :class:`~repro.core.preemption.controller.PreemptionRequest`: the
        incoming and resident kernel priorities are part of the per-request
        decision context handed to preemption controllers.
        """
        if not self.ksr_valid(ksr_index):
            return None
        return self.ksrt.get(ksr_index).priority

    def kernel_has_issuable_work(self, ksr_index: int) -> bool:
        """Whether the kernel has blocks that an SM could be given.

        Issuable work is either never-issued blocks or preempted blocks
        waiting in the kernel's PTBQ.
        """
        if not self.ksr_valid(ksr_index):
            return False
        entry = self.ksrt.get(ksr_index)
        return entry.launch.has_unissued_blocks or not self._ptbqs[ksr_index].empty

    def issuable_blocks(self, ksr_index: int) -> int:
        """Number of blocks an SM could still be given for this kernel."""
        if not self.ksr_valid(ksr_index):
            return 0
        entry = self.ksrt.get(ksr_index)
        return entry.launch.unissued_blocks + len(self._ptbqs[ksr_index])

    # ------------------------------------------------------------------
    # SMST
    # ------------------------------------------------------------------
    def sm_entry(self, sm_id: int) -> SMStatusEntry:
        """The SMST entry of SM ``sm_id``."""
        return self.smst.entry(sm_id)

    def idle_sms(self) -> List[int]:
        """Ids of all idle SMs."""
        return self.smst.idle_sms()

    def sms_running_kernel(self, ksr_index: int) -> List[int]:
        """SMs in the RUNNING state currently assigned to ``ksr_index``."""
        return self.smst.sms_for_ksr(ksr_index, state=SMState.RUNNING)

    def mark_sm_setup(self, sm_id: int, ksr_index: int) -> None:
        """Record that the SM driver started setting up ``sm_id``."""
        entry = self.smst.entry(sm_id)
        if not entry.is_idle:
            raise RuntimeError(f"SM{sm_id} must be idle to start setup (state={entry.state})")
        # Looked up first: an invalid index raises before the SMST changes.
        assigned = self.ksrt.get(ksr_index).assigned_sms
        self.smst.set_state(sm_id, SMState.SETUP)
        entry.ksr_index = ksr_index
        entry.next_ksr_index = None
        assigned.add(sm_id)

    def mark_sm_running(self, sm_id: int) -> None:
        """Record that setup finished and the SM is executing its kernel."""
        entry = self.smst.entry(sm_id)
        if entry.state is not SMState.SETUP:
            raise RuntimeError(f"SM{sm_id} is not in setup (state={entry.state})")
        self.smst.set_state(sm_id, SMState.RUNNING)

    def mark_sm_reserved(self, sm_id: int, next_ksr_index: Optional[int]) -> None:
        """Record that a policy reserved ``sm_id`` for ``next_ksr_index``."""
        entry = self.smst.entry(sm_id)
        if entry.state is not SMState.RUNNING:
            raise RuntimeError(f"only running SMs can be reserved (SM{sm_id} is {entry.state})")
        self.smst.set_state(sm_id, SMState.RESERVED)
        entry.next_ksr_index = next_ksr_index
        self.stats["sm_reservations"] += 1

    def update_sm_reservation(self, sm_id: int, next_ksr_index: Optional[int]) -> None:
        """Change the kernel a reserved SM is destined for (paper Sec. 3.4)."""
        entry = self.smst.entry(sm_id)
        if entry.state is not SMState.RESERVED:
            raise RuntimeError(f"SM{sm_id} is not reserved")
        entry.next_ksr_index = next_ksr_index

    def mark_sm_idle(self, sm_id: int) -> Optional[int]:
        """Release the SM back to the idle pool.

        Returns the KSR index the SM was last associated with (or ``None``),
        which policies use to return DSS tokens.
        """
        entry = self.smst.entry(sm_id)
        previous = entry.ksr_index
        if previous is not None and self.ksrt.is_valid(previous):
            self.ksrt.get(previous).assigned_sms.discard(sm_id)
        self.smst.set_state(sm_id, SMState.IDLE)
        entry.ksr_index = None
        entry.next_ksr_index = None
        return previous

    # ------------------------------------------------------------------
    # PTBQ
    # ------------------------------------------------------------------
    def push_preempted_block(self, ksr_index: int, block: ThreadBlock) -> None:
        """Store the handle of a context-switched thread block."""
        if not self.ksr_valid(ksr_index):
            raise KeyError(f"cannot push a preempted block for invalid KSR {ksr_index}")
        self._ptbqs[ksr_index].push(block)
        self.stats["blocks_preempted"] += 1

    def pop_preempted_block(self, ksr_index: int) -> Optional[ThreadBlock]:
        """Retrieve the oldest preempted block of a kernel (or ``None``)."""
        return self._ptbqs[ksr_index].pop()

    def preempted_block_count(self, ksr_index: int) -> int:
        """Number of preempted blocks waiting in the kernel's PTBQ."""
        return len(self._ptbqs[ksr_index])

    def ptbq(self, ksr_index: int) -> PreemptedThreadBlockQueue:
        """Direct access to a kernel's PTBQ (used by tests)."""
        return self._ptbqs[ksr_index]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat dictionary of framework counters (for experiment reports)."""
        out = {name: float(count) for name, count in self.stats.items()}
        out["active_kernels"] = float(len(self.active_queue))
        out["buffered_commands"] = float(self.command_buffers.occupancy())
        out["idle_sms"] = float(self.smst.idle_count)
        return out
