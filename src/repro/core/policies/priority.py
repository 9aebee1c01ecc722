"""Priority-queue scheduling policies (paper Sec. 2.4, 4.2, 4.3).

Two policies are provided:

* :class:`NonPreemptivePriorityPolicy` (NPQ) — "a modification to the GPU
  command scheduler [that] allows priorities to be assigned to processes":
  kernel commands are admitted in priority order and idle SMs are always
  given to the highest-priority active kernel with work, but running SMs are
  never preempted.  The high-priority kernel therefore still waits for the
  thread blocks of the currently running kernel to finish naturally.
* :class:`PreemptivePriorityPolicy` (PPQ) — additionally *reserves* SMs that
  run strictly lower-priority kernels whenever a higher-priority kernel needs
  them, letting the configured preemption mechanism free those SMs.  The
  ``exclusive_access`` flag selects between the paper's two variants
  (Fig. 6a vs 6b): with exclusive access, low-priority kernels are never
  scheduled onto free SMs while a higher-priority kernel is active; without
  it, free SMs are back-filled with low-priority work (which the paper shows
  to be counter-productive under preemption).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.framework.tables import KernelStatusEntry
from repro.core.policies.base import SchedulingPolicy
from repro.gpu.command_queue import KernelCommand
from repro.gpu.sm import SMState
from repro.registry import register_policy


@register_policy("npq", "nonpreemptive_priority")
class NonPreemptivePriorityPolicy(SchedulingPolicy):
    """Priority queues without preemption (NPQ)."""

    name = "npq"

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_command_buffered(self, command: KernelCommand) -> None:
        self._schedule()

    def on_kernel_finished(self, ksr_index: int, entry: KernelStatusEntry) -> None:
        self._schedule()

    def on_sm_idle(self, sm_id: int, previous_ksr_index: Optional[int]) -> None:
        self._schedule()

    # ------------------------------------------------------------------
    # Decision logic
    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        self._admit()
        self._assign_idle_sms()

    def _admit(self) -> None:
        """Admit buffered commands, highest priority first."""
        framework = self.framework
        while framework.has_active_capacity:
            pending = framework.pending_commands()
            if not pending:
                return
            pending.sort(
                key=lambda c: (
                    -c.priority,
                    c.enqueue_time_us if c.enqueue_time_us is not None else 0.0,
                    c.command_id,
                )
            )
            entry = self.engine.activate_command(pending[0])
            self.on_kernel_activated(entry)

    def _priority_order(self, entries: List[KernelStatusEntry]) -> List[KernelStatusEntry]:
        """Sort KSR entries by descending priority, then activation order."""
        return sorted(
            entries, key=lambda e: (-e.priority, e.activation_time_us, e.index)
        )

    def _assignment_candidates(self) -> List[KernelStatusEntry]:
        """Active kernels eligible to receive idle SMs, in assignment order."""
        return self._priority_order(self._active_with_work())

    def _assign_idle_sms(self) -> None:
        """Hand idle SMs to eligible kernels in priority order."""
        framework = self.framework
        idle = framework.idle_sms()
        if not idle:
            return
        # The candidate list is invariant across the loop: assigning an SM
        # (mark_sm_setup) changes neither which kernels have issuable work
        # nor their priority order — only ``_wants_more_sms``, which is
        # re-evaluated per SM below.
        candidates = self._assignment_candidates()
        for sm_id in idle:
            target = None
            for entry in candidates:
                if self._wants_more_sms(entry):
                    target = entry
                    break
            if target is None and candidates:
                # Every candidate already holds enough SMs for its remaining
                # blocks; leave the SM idle rather than over-assign.
                return
            if target is None:
                return
            self.engine.setup_sm(sm_id, target.index)


@register_policy(
    "ppq",
    "preemptive_priority",
    "ppq_exclusive",
    defaults={"exclusive_access": True},
)
class PreemptivePriorityPolicy(NonPreemptivePriorityPolicy):
    """Priority queues with preemption (PPQ)."""

    name = "ppq"

    def __init__(self, *, exclusive_access: bool = True):
        super().__init__()
        self.exclusive_access = exclusive_access
        if exclusive_access:
            self.name = "ppq"
        else:
            self.name = "ppq_shared"

    # ------------------------------------------------------------------
    # Decision logic
    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        self._admit()
        self._assign_idle_sms()
        self._enforce_priorities()

    def _assignment_candidates(self) -> List[KernelStatusEntry]:
        """Eligible receivers of idle SMs.

        With exclusive access only kernels of the highest active priority are
        scheduled; lower-priority kernels wait even if SMs are free.
        """
        candidates = self._active_with_work()
        if not candidates:
            return []
        if self.exclusive_access:
            active = self.framework.active_entries()
            top_priority = max(entry.priority for entry in active)
            candidates = [e for e in candidates if e.priority >= top_priority]
        return self._priority_order(candidates)

    def _enforce_priorities(self) -> None:
        """Preempt lower-priority SMs that higher-priority kernels need."""
        framework = self.framework
        for entry in self._priority_order(self._active_with_work()):
            needed = (
                self._sms_needed(entry)
                - entry.num_assigned_sms
                - self._reserved_for(entry.index)
            )
            if needed <= 0:
                continue
            victims = self._victim_sms(entry)
            for sm_id in victims[:needed]:
                self.engine.reserve_sm(sm_id, entry.index)

    def _victim_sms(self, beneficiary: KernelStatusEntry) -> List[int]:
        """Running SMs of strictly lower-priority kernels, lowest first."""
        framework = self.framework
        victims: List[tuple[int, float, int]] = []
        for victim in framework.active_entries():
            if victim.priority >= beneficiary.priority:
                continue
            for sm_id in framework.smst.sms_for_ksr(victim.index, state=SMState.RUNNING):
                victims.append((victim.priority, -victim.activation_time_us, sm_id))
        # Preempt the lowest-priority, most recently scheduled kernels first.
        victims.sort()
        return [sm_id for _, _, sm_id in victims]


# The shared-access variant (Figure 6b) is the same class with back-filling
# of free SMs enabled; ``exclusive_access`` is forced off for this name.
register_policy(
    "ppq_shared",
    "preemptive_priority_shared",
    overrides={"exclusive_access": False},
    description="Priority queues with preemption, shared access (back-filling)",
)(PreemptivePriorityPolicy)
