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

from itertools import takewhile
from typing import Iterable, List, Optional, Sequence

from repro.core.framework.tables import KernelStatusEntry
from repro.core.policies.base import SchedulingPolicy
from repro.gpu.command_queue import KernelCommand
from repro.gpu.sm import SMState
from repro.registry import register_policy


def _admission_key(command: KernelCommand) -> tuple:
    """Admission order of buffered commands: highest priority, then oldest."""
    enqueued = command.enqueue_time_us if command.enqueue_time_us is not None else 0.0
    return (-command.priority, enqueued, command.command_id)


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
        """Admit buffered commands, highest priority first.

        Activation lets the dispatcher submit the next command, which
        re-enters :meth:`_schedule`, so each pass re-reads the buffers.
        """
        framework = self.framework
        while framework.has_active_capacity and framework.has_pending_commands:
            command = min(framework.pending_commands(), key=_admission_key)
            entry = self.engine.activate_command(command)
            self.on_kernel_activated(entry)

    def _assignment_candidates(
        self, order: Sequence[KernelStatusEntry]
    ) -> Iterable[KernelStatusEntry]:
        """Active kernels eligible to receive idle SMs, in assignment order."""
        return order

    def _assign_idle_sms(self) -> None:
        """Hand idle SMs to eligible kernels in policy order.

        A kernel wants an SM while it holds fewer than its issuable blocks
        need, so one without issuable work never does.  Assigning an SM
        (``setup_sm``) only adds to the receiver's assigned SMs, so a kernel
        that stops wanting SMs never wants one again in this loop: one pass
        over the candidates serves every idle SM, and the idle SMs are not
        listed when no candidate wants one.
        """
        framework = self.framework
        if not framework.smst.idle_count:
            return
        wants = self._wants_more_sms
        candidates = (
            entry
            for entry in self._assignment_candidates(framework.policy_order)
            if wants(entry)
        )
        target = next(candidates, None)
        if target is None:
            return
        setup_sm = self.engine.setup_sm
        for sm_id in framework.idle_sms():
            if not wants(target):
                target = next(candidates, None)
                if target is None:
                    return
            setup_sm(sm_id, target.index)


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

    def _assignment_candidates(
        self, order: Sequence[KernelStatusEntry]
    ) -> Iterable[KernelStatusEntry]:
        """Eligible receivers of idle SMs.

        With exclusive access only kernels of the highest active priority
        (the head of the order) are scheduled; lower-priority kernels wait
        even if SMs are free.
        """
        if not self.exclusive_access or not order:
            return order
        top_priority = order[0].priority
        return takewhile(lambda entry: entry.priority == top_priority, order)

    def _enforce_priorities(self) -> None:
        """Preempt lower-priority SMs that higher-priority kernels need.

        Only a kernel above the lowest active priority can have a victim,
        so a tick whose active kernels share one priority returns at once.
        """
        order = self.framework.policy_order
        if not order:
            return
        lowest = order[-1].priority
        for entry in order:
            if entry.priority == lowest:
                return
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
        """Running SMs of strictly lower-priority kernels, lowest first.

        A kernel's RUNNING SMs are those of its assigned SMs whose SMST
        state is RUNNING: an SM joins ``assigned_sms`` when it is set up for
        the kernel and leaves when it goes idle.
        """
        smst_entry = self.framework.smst.entry
        running = SMState.RUNNING
        victims: List[tuple[int, float, int]] = []
        for victim in reversed(self.framework.policy_order):
            if victim.priority >= beneficiary.priority:
                break
            for sm_id in victim.assigned_sms:
                if smst_entry(sm_id).state is running:
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
