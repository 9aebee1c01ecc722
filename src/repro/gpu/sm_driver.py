"""The SM driver (paper Fig. 3).

The SM driver performs the operational work of the execution engine: it sets
up SMs for kernels (loading context and kernel status registers), issues
thread blocks until SMs are fully occupied, reacts to thread-block
completions, and — with the paper's extensions — cooperates with the
preemption mechanism when the scheduling policy reserves an SM.

The driver deliberately contains **no scheduling decisions**: which kernel an
SM should run, and when an SM must be taken away from a kernel, is decided by
the policy through the execution engine's operations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.gpu.blockrun import BlockRun
from repro.gpu.sm import SMState
from repro.gpu.thread_block import ThreadBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.gpu.execution_engine import ExecutionEngine


class SMDriver:
    """Issues thread blocks to SMs and handles completions and preemptions."""

    def __init__(self, engine: "ExecutionEngine"):
        self._engine = engine
        #: Per-SM completion callbacks, created once: bulk issue hands the
        #: same callable to every block of a burst instead of binding one
        #: closure per block.
        self._completion_callbacks: dict[int, object] = {}
        #: Issue latency, cached: the configuration is immutable.
        self._tb_issue_latency_us = engine.system_config.gpu.tb_issue_latency_us
        #: Wave batching gate, cached: vectorised runs ride the wave path.
        self._wave_batching = engine.system_config.gpu.wave_batching

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def _sim(self):
        return self._engine.simulator

    @property
    def _framework(self):
        return self._engine.framework

    @property
    def _config(self):
        return self._engine.system_config

    # ------------------------------------------------------------------
    # SM setup
    # ------------------------------------------------------------------
    def setup_sm(self, sm_id: int, ksr_index: int) -> None:
        """Begin setting up an idle SM for an active kernel.

        The setup takes ``sm_setup_latency_us``; once it completes the driver
        starts issuing thread blocks.
        """
        framework = self._framework
        if not framework.ksr_valid(ksr_index):
            raise ValueError(f"cannot set up SM{sm_id} for invalid KSR {ksr_index}")
        framework.mark_sm_setup(sm_id, ksr_index)
        expected_launch_id = framework.ksr(ksr_index).launch.launch_id
        self._sim.schedule(
            self._config.gpu.sm_setup_latency_us,
            lambda: self._finish_setup(sm_id, ksr_index, expected_launch_id),
            label=f"smdriver.setup.sm{sm_id}",
        )

    def _finish_setup(self, sm_id: int, ksr_index: int, expected_launch_id: int) -> None:
        """Complete the setup and start filling the SM with thread blocks."""
        framework = self._framework
        sm = self._engine.sm(sm_id)
        stale = (
            not framework.ksr_valid(ksr_index)
            or framework.ksr(ksr_index).launch.launch_id != expected_launch_id
            or not framework.kernel_has_issuable_work(ksr_index)
        )
        if stale:
            # The kernel finished (or its remaining blocks were all issued
            # elsewhere, or its KSRT index was recycled by a different kernel)
            # while this SM was being set up: release the SM.
            self._release_sm(sm_id, owner_ksr=ksr_index)
            return
        entry = framework.ksr(ksr_index)
        context = self._engine.context_for(entry.context_id)
        sm.configure(
            ksr_index=ksr_index,
            context_id=entry.context_id,
            page_table_base=context.page_table_base if context is not None else 0,
            max_resident_blocks=entry.blocks_per_sm,
            shared_memory_config=entry.shared_memory_config,
        )
        framework.mark_sm_running(sm_id)
        self.fill_sm(sm_id)

    # ------------------------------------------------------------------
    # Thread-block issue
    # ------------------------------------------------------------------
    def fill_sm(self, sm_id: int) -> None:
        """Issue thread blocks to ``sm_id`` until it is full or out of work.

        The burst is collected first and issued through one
        :meth:`~repro.gpu.sm.StreamingMultiprocessor.start_blocks` call per
        dispatch tick, so same-completion blocks can share a wave event.
        Preempted thread blocks of the kernel are issued before fresh ones so
        that the number of PTBQ entries stays bounded (paper Sec. 3.3).  If
        the SM ends up with no resident blocks and nothing to issue, it is
        released back to the idle pool and the policy is notified.
        """
        engine = self._engine
        framework = engine.framework
        sm_entry = framework.sm_entry(sm_id)
        if sm_entry.state is not SMState.RUNNING:
            return
        self._fill_running_sm(engine.sm(sm_id), sm_entry, framework)

    def _fill_running_sm(self, sm, sm_entry, framework, entry=None, callback=None) -> None:
        """Fill a RUNNING SM (hot path; callers prefetched the lookups).

        ``entry``/``callback`` may be pre-resolved by the completion callback
        (they are per-run-stable); per free slot the pick order is unchanged:
        preempted blocks of the kernel first (the engine routes each restore
        cost to the mechanism that evicted the block), then fresh blocks.
        """
        ksr_index = sm_entry.ksr_index
        if entry is None:
            entry = framework.ksrt.find(ksr_index) if ksr_index is not None else None
            if entry is None:
                self._release_sm(sm.sm_id, owner_ksr=ksr_index)
                return
        launch = entry.launch

        resident = sm._resident
        free = sm.max_resident_blocks - (len(resident) + sm._run_blocks)
        if free > 0:
            tb_issue_latency = self._tb_issue_latency_us
            ptbq = framework.ptbq(ksr_index)
            if (
                self._wave_batching
                and launch.jitter is None
                and sm.observer is None
                and len(ptbq) == 0
            ):
                # Vectorised issue: an all-fresh, jitter-free refill of an
                # unobserved SM becomes one BlockRun — no block objects, one
                # wave entry (see repro.gpu.blockrun).  Byte-identical to
                # the per-block path below by construction.
                first, taken = launch.take_fresh_span(free)
                if taken:
                    if callback is None:
                        callback = self._completion_callback(sm.sm_id)
                    run = BlockRun(launch, first, taken, launch.spec.avg_tb_time_us)
                    sm.start_run(
                        run, extra_latency_us=tb_issue_latency, on_complete=callback
                    )
            else:
                ptbq_pop = ptbq.pop
                engine = self._engine
                issues: List[tuple[ThreadBlock, float]] = []
                while free > 0:
                    block = ptbq_pop()
                    if block is None:
                        # The PTBQ cannot refill during the loop: every
                        # remaining slot takes a fresh block, so take them in
                        # one call.
                        fresh = launch.take_fresh_blocks(free)
                        if fresh:
                            for fresh_block in fresh:
                                issues.append((fresh_block, tb_issue_latency))
                            free -= len(fresh)
                        break
                    restore = engine.restore_latency_us(
                        block, launch.spec.usage.state_bytes_per_block
                    )
                    issues.append((block, tb_issue_latency + restore))
                    free -= 1
                if issues:
                    if callback is None:
                        callback = self._completion_callback(sm.sm_id)
                    sm.start_blocks(issues, on_complete=callback)

        if not resident and not sm._run_blocks:
            self._release_sm(sm.sm_id, owner_ksr=ksr_index)

    def _completion_callback(self, sm_id: int):
        """The (cached) per-SM completion callback handed to issued units.

        The callback retires one unit — a :class:`ThreadBlock`, or a
        :class:`~repro.gpu.blockrun.BlockRun` of ``count`` fresh blocks — in
        any SMST state.  A resident unit belongs to the kernel the SMST entry
        names (only an empty SM is configured), and that kernel can finish
        only on its last unit.  When it finishes, the SM (necessarily empty)
        is released *before* ``finish_kernel`` is announced, so policy hooks
        never observe a stale RUNNING association; a RESERVED SM routes the
        completion to the mechanism owning its preemption; a RUNNING SM is
        refilled.

        The closure pre-binds every per-run-stable object (engine, framework,
        SM, SMST entry, simulator): block completion is the hottest
        model path, and the prologue lookups would otherwise repeat hundreds
        of thousands of times on large-GPU scenarios.
        """
        callback = self._completion_callbacks.get(sm_id)
        if callback is None:
            engine = self._engine
            framework = engine.framework
            simulator = engine.simulator
            sm = engine.sm(sm_id)
            sm_entry = framework.sm_entry(sm_id)
            ksr = framework.ksrt.get

            def callback(unit: ThreadBlock | BlockRun) -> None:
                ksr_index = sm_entry.ksr_index
                entry = ksr(ksr_index)
                launch = entry.launch
                launch.note_completed(unit.count, simulator.now)

                if launch.all_blocks_completed:
                    # Release before finish_kernel (see the docstring).
                    if sm_entry.state is SMState.RUNNING:
                        self._release_sm(sm_id, owner_ksr=ksr_index)
                    engine.finish_kernel(ksr_index)

                state = sm_entry.state
                if state is SMState.RESERVED:
                    engine.mechanism_for_sm(sm_id).on_block_completed(sm)
                elif state is SMState.RUNNING:
                    # The SM still runs this (unfinished) kernel: its KSRT
                    # entry and this callback can be reused by the fill.
                    self._fill_running_sm(sm, sm_entry, framework, entry, callback)

            self._completion_callbacks[sm_id] = callback
        return callback

    # ------------------------------------------------------------------
    # Preemption completion
    # ------------------------------------------------------------------
    def complete_preemption(self, sm_id: int, evicted_blocks: List[ThreadBlock]) -> None:
        """The preemption mechanism finished freeing ``sm_id``.

        Evicted blocks (context-switch mechanism only) are stored in their
        kernel's PTBQ.  The SM is then handed to the kernel it was reserved
        for, or released to the idle pool if that kernel no longer needs it.
        """
        framework = self._framework
        sm_entry = framework.sm_entry(sm_id)
        if sm_entry.state is not SMState.RESERVED:
            # The reservation was already resolved through another path (e.g.
            # the draining mechanism completed via a block-completion
            # notification before its zero-delay "already empty" event fired).
            # Preempted state, if any, must still be preserved.
            for block in evicted_blocks:  # pragma: no cover - defensive
                ksr_index = framework.ksr_index_for_launch(block.kernel_launch_id)
                if ksr_index is not None:
                    framework.push_preempted_block(ksr_index, block)
            return

        for block in evicted_blocks:
            ksr_index = framework.ksr_index_for_launch(block.kernel_launch_id)
            if ksr_index is None:  # pragma: no cover - defensive
                raise RuntimeError("evicted block belongs to no active kernel")
            framework.push_preempted_block(ksr_index, block)

        next_ksr = sm_entry.next_ksr_index
        owner = next_ksr if next_ksr is not None else sm_entry.ksr_index
        # Release the SM: clears SMST/KSRT assignment and SM registers.
        previous = framework.mark_sm_idle(sm_id)
        self._engine.sm(sm_id).release()

        if framework.ksr_valid(next_ksr) and framework.kernel_has_issuable_work(next_ksr):
            self.setup_sm(sm_id, next_ksr)
        else:
            self._engine.notify_sm_idle(sm_id, owner if owner is not None else previous)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _release_sm(self, sm_id: int, *, owner_ksr: Optional[int]) -> None:
        """Return an SM to the idle pool and notify the policy."""
        previous = self._framework.mark_sm_idle(sm_id)
        self._engine.sm(sm_id).release()
        self._engine.notify_sm_idle(sm_id, owner_ksr if owner_ksr is not None else previous)
