"""The Dynamic Spatial Sharing (DSS) policy (paper Sec. 3.4, Algorithm 1).

DSS performs dynamic spatial partitioning of the execution engine by
assigning disjoint sets of SMs to different kernels.  Ownership of SMs is
expressed with *tokens*: the OS/runtime assigns each process a token budget;
one token is spent when an SM is assigned to the process's kernel and
returned when the SM is deassigned.  To avoid under-utilisation, kernels may
go into debt (negative token count) and occupy more SMs than their budget
when SMs would otherwise sit idle.

The partitioning procedure runs on two events — a kernel is inserted into the
active queue, and an SM becomes idle — and repeatedly either hands an idle SM
to the kernel with the highest token count that still has thread blocks to
issue, or (when no SM is idle) reserves an SM of the kernel with the lowest
token count for the one with the highest, until the token counts differ by at
most one.

Equal sharing (paper Sec. 4.4) assigns every process ``floor(N_sm / N_proc)``
tokens, with the remainder going to the first processes whose kernels reach
the active queue.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.framework.tables import KernelStatusEntry
from repro.core.policies.base import SchedulingPolicy
from repro.gpu.command_queue import KernelCommand
from repro.registry import register_policy


@register_policy("dss", "dynamic_spatial_sharing")
class DynamicSpatialSharingPolicy(SchedulingPolicy):
    """Token-based dynamic spatial partitioning of SMs across processes."""

    name = "dss"

    def __init__(
        self,
        *,
        process_count: Optional[int] = None,
        token_budgets: Optional[Dict[str, int]] = None,
    ):
        """Create a DSS policy.

        Parameters
        ----------
        process_count:
            Number of processes in the workload, used for equal sharing when
            no explicit budgets are given.  If ``None``, the number of
            distinct contexts seen so far is used (budgets are then assigned
            on first activation and never rebalanced, which matches the
            paper's static token assignment).
        token_budgets:
            Optional explicit per-process token budgets keyed by process
            name; overrides equal sharing for the named processes.
        """
        super().__init__()
        if process_count is not None and process_count < 1:
            raise ValueError("process_count must be positive")
        self._process_count = process_count
        self._explicit_budgets = dict(token_budgets or {})
        #: Budgets assigned so far, keyed by context id.
        self._context_budgets: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Token budgets
    # ------------------------------------------------------------------
    def budget_for(self, command: KernelCommand) -> int:
        """Token budget of the process launching ``command``."""
        context_id = command.context_id
        if context_id in self._context_budgets:
            return self._context_budgets[context_id]
        if command.process_name in self._explicit_budgets:
            budget = self._explicit_budgets[command.process_name]
        else:
            budget = self._equal_share_budget()
        self._context_budgets[context_id] = budget
        return budget

    def _equal_share_budget(self) -> int:
        """Equal-share budget for the next first-seen context.

        ``tc = floor(N_sm / N_proc)``; the ``N_sm mod N_proc`` remainder goes
        to the first ``r`` contexts that reach the active queue.
        """
        num_sms = self.engine.num_sms
        known = len(self._context_budgets)
        process_count = self._process_count if self._process_count is not None else max(1, known + 1)
        base = max(1, num_sms // process_count)
        remainder = num_sms % process_count if num_sms >= process_count else 0
        bonus = 1 if known < remainder else 0
        return base + bonus

    def assigned_budgets(self) -> Dict[int, int]:
        """Budgets assigned so far, keyed by context id (for tests/reports)."""
        return dict(self._context_budgets)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_command_buffered(self, command: KernelCommand) -> None:
        self._admit()
        self._partition()

    def on_kernel_finished(self, ksr_index: int, entry: KernelStatusEntry) -> None:
        self._admit()
        self._partition()

    def on_sm_idle(self, sm_id: int, previous_ksr_index: Optional[int]) -> None:
        framework = self.framework
        if previous_ksr_index is not None and framework.ksr_valid(previous_ksr_index):
            # The SM was deassigned: return its token to the previous owner.
            framework.ksr(previous_ksr_index).token_count += 1
        self._admit()
        self._partition()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        """Admit every buffered command while active-queue capacity lasts."""
        framework = self.framework
        while framework.has_active_capacity:
            pending = framework.pending_commands()
            if not pending:
                return
            command = pending[0]
            command.launch.tokens = self.budget_for(command)
            entry = self.engine.activate_command(command)
            entry.token_count = command.launch.tokens
            self.on_kernel_activated(entry)

    # ------------------------------------------------------------------
    # Partitioning procedure (Algorithm 1)
    # ------------------------------------------------------------------
    def _partition(self) -> None:
        """Run the DSS partitioning procedure until the counts are balanced."""
        framework = self.framework
        engine = self.engine
        # Safety bound: every iteration either consumes an idle SM or
        # strictly reduces the max-min token gap, so 4x the machine size is
        # far more than the procedure can ever need.
        for _ in range(4 * engine.num_sms + 4):
            entries = framework.active_entries()
            if not entries:
                return
            receivers = [
                e
                for e in entries
                if framework.kernel_has_issuable_work(e.index) and self._wants_more_sms(e)
            ]
            if not receivers:
                return
            ksr_max = max(
                receivers, key=lambda e: (e.token_count, -e.activation_time_us, -e.index)
            )
            ksr_min = min(
                entries, key=lambda e: (e.token_count, e.activation_time_us, e.index)
            )
            idle = framework.idle_sms()
            if idle:
                # Idle SMs are always handed out; kernels may go into debt.
                ksr_max.token_count -= 1
                engine.setup_sm(idle[0], ksr_max.index)
                continue
            if ksr_max.index == ksr_min.index:
                return
            if ksr_max.token_count <= ksr_min.token_count:
                # Balanced: preempting would only cause churn.
                return
            victims = framework.sms_running_kernel(ksr_min.index)
            if not victims:
                # The over-allocated kernel has no preemptable SM right now
                # (they are in setup or already being preempted); try again on
                # the next scheduling event.
                return
            ksr_min.token_count += 1
            ksr_max.token_count -= 1
            engine.reserve_sm(victims[0], ksr_max.index)
            if ksr_max.token_count <= ksr_min.token_count + 1:
                return
