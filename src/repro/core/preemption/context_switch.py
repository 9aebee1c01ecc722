"""The context-switch preemption mechanism (paper Sec. 3.2).

Follows the basic principle of preemption used by operating-system
schedulers: the execution contexts of all thread blocks running on the
preempted SM are saved to off-chip memory, and those thread blocks are issued
again (restoring their context first) later on.

Timing model
------------
* The SM pipelines are drained before the trap routine runs (precise
  exceptions): a fixed ``pipeline_drain_latency_us``.  Resident blocks keep
  making progress during the drain.
* Saving the contexts takes ``resident state bytes / per-SM bandwidth share``
  microseconds, matching the paper's projected save times in Table 1
  (e.g. 16.2 µs for a fully occupied SM running ``lbm.StreamCollide``).
* Restoring a preempted block before it resumes costs its own state bytes
  over the same bandwidth share; the SM driver adds that latency when it
  re-issues the block from the PTBQ (routed back to this mechanism by the
  engine, which remembers each block's evictor — mechanisms are chosen per
  preemption request by a
  :class:`~repro.core.preemption.controller.PreemptionController`, so a
  context-switched block may be restored while other SMs drain).
"""

from __future__ import annotations

from typing import List

from repro.core.preemption.base import PreemptionMechanism
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.thread_block import ThreadBlock
from repro.registry import register_mechanism


@register_mechanism("context_switch", "cs", "switch")
class ContextSwitchMechanism(PreemptionMechanism):
    """Preempt by saving and later restoring thread-block contexts."""

    name = "context_switch"

    # ------------------------------------------------------------------
    # Mechanism hooks
    # ------------------------------------------------------------------
    def initiate(self, sm: StreamingMultiprocessor) -> None:
        """Raise the preemption trap on ``sm``.

        The trap first drains the SM pipelines, then evicts all resident
        blocks and spends the save time moving their state off-chip.
        """
        drain = self.host.system_config.gpu.pipeline_drain_latency_us
        if sm.is_empty:
            # Nothing resident: the SM frees as soon as the trap is taken.
            self.host.simulator.schedule(
                drain,
                lambda: self.host.preemption_complete(sm.sm_id, []),
                label=f"ctxswitch.sm{sm.sm_id}.empty",
            )
            return
        self.host.simulator.schedule(
            drain,
            lambda: self._start_save(sm),
            label=f"ctxswitch.sm{sm.sm_id}.drain",
        )

    def on_block_completed(self, sm: StreamingMultiprocessor) -> None:
        """Blocks may complete naturally while the trap is being taken.

        The context switch never depends on natural completions: the
        scheduled drain/save path finishes the preemption regardless, so
        there is nothing to do here.
        """

    def restore_latency_us(self, block: ThreadBlock, state_bytes_per_block: int) -> float:
        """Restoring a block moves its saved state back on-chip."""
        bandwidth = self.host.system_config.gpu.per_sm_bandwidth_bytes_per_us
        return state_bytes_per_block / bandwidth

    # ------------------------------------------------------------------
    # Internal steps
    # ------------------------------------------------------------------
    def _start_save(self, sm: StreamingMultiprocessor) -> None:
        """Evict the resident blocks and start moving their state off-chip."""
        evicted = sm.evict_all()
        if not evicted:
            # Every block completed during the pipeline drain.
            self.host.preemption_complete(sm.sm_id, [])
            return
        state_bytes = self._evicted_state_bytes(sm, evicted)
        bandwidth = self.host.system_config.gpu.per_sm_bandwidth_bytes_per_us
        save_time = state_bytes / bandwidth
        self.host.simulator.schedule(
            save_time,
            lambda: self.host.preemption_complete(sm.sm_id, evicted),
            label=f"ctxswitch.sm{sm.sm_id}.save",
        )

    def _evicted_state_bytes(
        self, sm: StreamingMultiprocessor, evicted: List[ThreadBlock]
    ) -> int:
        """Architectural state (registers + shared memory) of the evicted blocks."""
        framework = self.host.framework
        total = 0
        for block in evicted:
            ksr_index = framework.ksr_index_for_launch(block.kernel_launch_id)
            if ksr_index is None:  # pragma: no cover - defensive
                continue
            usage = framework.ksr(ksr_index).launch.spec.usage
            total += usage.state_bytes_per_block
        return total
