"""The Streaming Multiprocessor (SM) model.

The simulator works at thread-block granularity: the SM holds a set of
resident thread blocks, each of which finishes after its (remaining)
execution time.  The SM itself is deliberately "dumb": the SM driver
(:mod:`repro.gpu.sm_driver`) decides what to issue and when to preempt; the
SM only tracks residency, schedules/cancels completion events and records
per-SM context registers and utilisation statistics.

Wave-level execution
--------------------
Blocks issued in one burst (:meth:`StreamingMultiprocessor.start_blocks`)
whose completions fall on the *same instant* — same-kernel blocks with
identical remaining time, the common case for regular grids with jitter
disabled — share one aggregated "wave" completion event instead of one heap
event each.  The wave fires its blocks' completions in exactly the order and
with exactly the observer notifications the per-block events would have
produced (the burst's per-block events would carry consecutive sequence
numbers, so no foreign event can interleave), which keeps the optimisation
observably invisible; ``tests/gpu/test_wave_equivalence.py`` proves it
byte-identical against the per-block path forced by
``GPUConfig.wave_batching = False``.  Blocks with heterogeneous remainders
(jitter, restored preempted blocks) fall back to exact per-block events.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.gpu.blockrun import BlockRun
from repro.gpu.config import GPUConfig
from repro.gpu.thread_block import ThreadBlock
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle
from repro.sim.stats import UtilizationTracker


class Wave:
    """One completion event shared by thread blocks finishing at one instant.

    A wave may span several SMs: entries are ``(sm, block, on_complete)``
    triples in exact per-block-event order.  Firing completes each block
    through its own SM's bookkeeping, skipping blocks whose completion was
    superseded (evicted, or evicted and re-issued with a new event) via an
    identity check against the wave the block is currently registered under.

    When no observer is attached to an SM, a contiguous run of its blocks is
    handed to the completion callback's ``batch_complete`` handler (see
    :meth:`repro.gpu.sm_driver.SMDriver._batch_complete`), which completes
    the run and refills the SM once instead of once per block.  The handler
    only accepts runs it can prove behave identically to per-block
    processing; anything else falls back to the exact path.
    """

    __slots__ = ("time", "seq", "handle", "event", "entries", "live")

    def __init__(self, time: float, entries: list):
        self.time = time
        self.seq = -1
        self.handle: Optional[EventHandle] = None
        #: The underlying :class:`~repro.sim.events.Event` (join checks read
        #: its ``fired``/``cancelled`` flags without property indirection).
        self.event = None
        self.entries = entries
        #: Entries whose completion this event still owns; evictions
        #: decrement it and cancel the event when it reaches zero, so a
        #: fully-preempted wave behaves exactly like cancelled per-block
        #: events (and never extends the run as a zombie no-op).
        self.live = len(entries)

    def fire(self) -> None:
        entries = self.entries
        # Attributed to the first SM of the wave; summing the counter over
        # all SMs yields the exact number of fired block-carrying heap
        # events, which the scale benchmark uses to convert raw event counts
        # into block-equivalent throughput.
        entries[0][0].completion_waves_fired += 1
        hist = entries[0][0].metrics_wave_hist
        if hist is not None:
            # Wave size in *blocks*: a BlockRun entry stands for the count
            # of per-block entries it compressed away.
            hist.observe(
                sum(e[1].count if e[1].__class__ is BlockRun else 1 for e in entries)
            )
        n = len(entries)
        i = 0
        while i < n:
            sm, block, on_complete = entries[i]
            completions = sm._completions
            if completions.get(block.key) is not self:
                i += 1
                continue
            if block.__class__ is BlockRun:
                if sm.observer is None:
                    batch_run = getattr(on_complete, "batch_complete_run", None)
                    if batch_run is not None and batch_run(sm, block, self):
                        i += 1
                        continue
                # Fallback (observer attached since issue, SM reserved, or
                # the kernel would finish inside the run): materialise in
                # place.  The splice puts one per-block entry in exactly the
                # event positions the per-block path would have used; reloop
                # without advancing so they are processed normally.
                sm._materialize_run(block)
                n = len(entries)
                continue
            j = i + 1
            while j < n:
                entry = entries[j]
                if (
                    entry[0] is not sm
                    or entry[2] is not on_complete
                    or entry[1].__class__ is BlockRun
                    or completions.get(entry[1].key) is not self
                ):
                    break
                j += 1
            if j - i > 1 and sm.observer is None:
                batch = getattr(on_complete, "batch_complete", None)
                if batch is not None and batch(sm, [e[1] for e in entries[i:j]], self):
                    i = j
                    continue
            sm._finish_block(block, on_complete)
            i += 1


class WaveAnchor:
    """The most recently scheduled wave of an execution engine.

    Shared by every SM of the engine so that completions landing on the same
    instant — including single-block refills issued from different SMs while
    one generation of waves fires — can merge into one heap event.  See
    :meth:`StreamingMultiprocessor.start_blocks` for the merge conditions.
    """

    __slots__ = ("wave",)

    def __init__(self) -> None:
        self.wave: Optional[Wave] = None


class SMState(enum.Enum):
    """SM states tracked by the SM Status Table (paper Sec. 3.3)."""

    IDLE = "idle"
    #: Being configured for a kernel (context registers, KSR) by the driver.
    SETUP = "setup"
    RUNNING = "running"
    #: Reserved by the scheduling policy; the preemption mechanism is freeing it.
    RESERVED = "reserved"


class StreamingMultiprocessor:
    """One GPU core.

    Parameters
    ----------
    sm_id:
        Index of the SM within the execution engine.
    config:
        GPU hardware configuration (occupancy limits, latencies).
    simulator:
        The shared discrete-event simulator.
    """

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        simulator: Simulator,
        wave_anchor: Optional[WaveAnchor] = None,
    ):
        self.sm_id = sm_id
        self.config = config
        self._sim = simulator
        #: Wave-joining anchor, shared across the engine's SMs (a standalone
        #: SM gets a private one).
        self._wave_anchor = wave_anchor if wave_anchor is not None else WaveAnchor()

        self.state = SMState.IDLE
        #: Per-SM context registers added by the paper (Sec. 3.1).
        self.context_id_register: Optional[int] = None
        self.page_table_register: Optional[int] = None
        #: KSR index of the kernel the SM is currently set up for.
        self.ksr_index: Optional[int] = None
        #: Maximum concurrently resident blocks for the current kernel.
        self.max_resident_blocks: int = 0
        #: Shared-memory configuration currently selected (bytes).
        self.shared_memory_config: int = config.default_shared_memory_bytes

        self._resident: Dict[tuple[int, int], ThreadBlock] = {}
        #: Wave owning each resident block's (or run's) pending completion.
        self._completions: Dict[tuple[int, int], Wave] = {}
        #: Vectorised residency: resident :class:`BlockRun` spans by key, in
        #: issue order (see :meth:`start_run`), plus their total block count.
        #: Anything that needs real blocks calls :meth:`_materialize_runs`.
        self._runs: Dict[tuple[int, int], BlockRun] = {}
        self._run_blocks = 0

        #: Optional instrumentation sink (see :mod:`repro.validation`).
        #: Observers are notified of block start/completion/eviction and SM
        #: configure/release; they must never mutate simulation state.
        self.observer: Optional[object] = None

        #: Optional :class:`repro.obs.LogHistogram` fed one sample per fired
        #: wave (the wave size in blocks).  A None-gated raw attribute, not
        #: an observer: attaching an observer disables the wave batch fast
        #: path, while this hook rides the existing per-wave counter update.
        self.metrics_wave_hist = None

        self.utilization = UtilizationTracker(simulator.now)
        self.blocks_executed = 0
        self.blocks_preempted = 0
        self.preemptions = 0
        self.setups = 0
        #: Block-carrying completion events that fired with this SM as the
        #: wave's first entry (see :meth:`Wave.fire`).
        self.completion_waves_fired = 0

    # ------------------------------------------------------------------
    # Setup / teardown
    # ------------------------------------------------------------------
    def configure(
        self,
        *,
        ksr_index: int,
        context_id: int,
        page_table_base: int,
        max_resident_blocks: int,
        shared_memory_config: int,
    ) -> None:
        """Load the per-kernel and per-context state into the SM.

        Called by the SM driver at the end of the setup latency.  The SM must
        not be holding blocks from a previous kernel.
        """
        if self._resident:
            raise RuntimeError(f"SM{self.sm_id}: configure() while thread blocks are resident")
        self.ksr_index = ksr_index
        self.context_id_register = context_id
        self.page_table_register = page_table_base
        self.max_resident_blocks = max_resident_blocks
        self.shared_memory_config = shared_memory_config
        self.state = SMState.RUNNING
        self.setups += 1
        if self.observer is not None:
            self.observer.on_sm_configured(self)

    def release(self) -> None:
        """Clear the SM's kernel/context registers and return it to IDLE."""
        if self._resident:
            raise RuntimeError(f"SM{self.sm_id}: release() while thread blocks are resident")
        self.ksr_index = None
        self.context_id_register = None
        self.page_table_register = None
        self.max_resident_blocks = 0
        # Reset the shared-memory partition select: a released SM must not
        # leak the previous kernel's configuration into the next setup.
        self.shared_memory_config = self.config.default_shared_memory_bytes
        self.state = SMState.IDLE
        self.utilization.set_idle(self._sim.now)
        if self.observer is not None:
            self.observer.on_sm_released(self)

    # ------------------------------------------------------------------
    # Thread-block execution
    # ------------------------------------------------------------------
    @property
    def resident_blocks(self) -> int:
        """Number of thread blocks currently resident (runs included)."""
        return len(self._resident) + self._run_blocks

    @property
    def has_free_slots(self) -> bool:
        """Whether another block of the current kernel fits on the SM."""
        return self.resident_blocks < self.max_resident_blocks

    @property
    def is_empty(self) -> bool:
        """Whether no thread blocks are resident."""
        return not self._resident and not self._run_blocks

    def resident(self) -> list[ThreadBlock]:
        """The currently resident thread blocks (unspecified order).

        Materialises any vectorised runs first: callers get (and the SM then
        keeps) real per-block state, identical to the per-block path's.
        """
        if self._runs:
            self._materialize_runs()
        return list(self._resident.values())

    def start_block(
        self,
        block: ThreadBlock,
        *,
        extra_latency_us: float,
        on_complete: Callable[[ThreadBlock], None],
    ) -> None:
        """Begin executing one ``block`` on this SM.

        ``extra_latency_us`` accounts for issue latency and, for preempted
        blocks, the context-restore time; it is added before the block's
        remaining execution time.  ``on_complete`` is invoked when the block
        finishes (unless the completion is cancelled by a preemption).
        """
        self.start_blocks([(block, extra_latency_us)], on_complete=on_complete)

    def start_blocks(
        self,
        issues: List[Tuple[ThreadBlock, float]],
        *,
        on_complete: Callable[[ThreadBlock], None],
    ) -> None:
        """Begin executing a burst of ``(block, extra_latency_us)`` issues.

        This is the SM driver's bulk-issue entry point (one call per SM per
        dispatch tick).  Blocks whose completion falls on the same instant
        are aggregated into a single wave completion event (unless
        ``config.wave_batching`` is off); heterogeneous completion times get
        exact per-block events.  Either way the blocks start — and later
        complete — in issue order, with identical observer notifications.
        """
        if not issues:
            return
        if self._runs:
            # Per-block issues and vectorised runs never mix: convert the
            # runs first so residency (and later eviction) order matches the
            # per-block path exactly.
            self._materialize_runs()
        sim = self._sim
        now = sim.now
        resident = self._resident
        observer = self.observer
        limit = self.max_resident_blocks
        self.utilization.set_busy(now)
        batching = self.config.wave_batching

        if len(issues) == 1:
            # Fast path for the dominant steady-state call: one refill issued
            # from a completed block's callback.
            block, extra_latency_us = issues[0]
            if len(resident) >= limit:
                raise RuntimeError(f"SM{self.sm_id}: no free slot for another thread block")
            key = block.key
            if key in resident:
                raise RuntimeError(f"SM{self.sm_id}: block {key} already resident")
            block.start(self.sm_id, now)
            resident[key] = block
            if observer is not None:
                observer.on_block_started(self, block)
            # Same float-addition order as the legacy ``schedule(delay)`` path
            # (``now + (extra + remaining)``): completion instants must match
            # the per-block events bit for bit.
            self._schedule_completion(
                now + (extra_latency_us + block.remaining_time_us),
                [block],
                on_complete,
                batching,
            )
            return

        # Validate the whole burst before mutating anything: a mid-burst
        # failure must not leave earlier blocks resident and started with no
        # completion event scheduled.
        if len(resident) + len(issues) > limit:
            raise RuntimeError(f"SM{self.sm_id}: no free slot for another thread block")
        seen_keys = set()
        for block, _ in issues:
            key = block.key
            if key in resident or key in seen_keys:
                raise RuntimeError(f"SM{self.sm_id}: block {key} already resident")
            seen_keys.add(key)

        #: (completion time, blocks) per event to schedule, in issue order of
        #: each group's first block — which makes the scheduled sequence
        #: numbers land exactly where the per-block events' would.
        bursts: List[Tuple[float, List[ThreadBlock]]] = []
        wave_index: Dict[float, int] = {}
        for block, extra_latency_us in issues:
            key = block.key
            block.start(self.sm_id, now)
            resident[key] = block
            if observer is not None:
                observer.on_block_started(self, block)
            completes_at = now + (extra_latency_us + block.remaining_time_us)
            if batching:
                index = wave_index.get(completes_at)
                if index is None:
                    wave_index[completes_at] = len(bursts)
                    bursts.append((completes_at, [block]))
                else:
                    bursts[index][1].append(block)
            else:
                bursts.append((completes_at, [block]))
        for completes_at, blocks in bursts:
            self._schedule_completion(completes_at, blocks, on_complete, batching)

    def _schedule_completion(
        self,
        completes_at: float,
        blocks: List[ThreadBlock],
        on_complete: Callable[[ThreadBlock], None],
        batching: bool,
    ) -> None:
        """Create (or join) the completion event for ``blocks``.

        Wave joining: when the engine's most recently scheduled completion
        event falls on the same instant and *nothing* was scheduled since it
        (sequence contiguity), the per-block events these blocks would have
        received occupy the sequence slots directly after it, so no foreign
        event can interleave between them — merging is firing-order
        invisible.  This is what keeps steady-state refills (one block issued
        per completed block of a firing wave, across all SMs) collapsed into
        one event per generation.
        """
        completions = self._completions
        sim = self._sim
        if batching:
            wave = self._wave_anchor.wave
            # ``sim._seq - 1`` is the sequence number of the most recently
            # scheduled event: equality with the anchor's seq proves nothing
            # was scheduled since the anchor event was created.
            if wave is not None and completes_at == wave.time and sim._seq - 1 == wave.seq:
                event = wave.event
                if not event.fired and not event.cancelled:
                    entries = wave.entries
                    for block in blocks:
                        entries.append((self, block, on_complete))
                        completions[block.key] = wave
                    wave.live += len(blocks)
                    return
        wave = Wave(completes_at, [(self, block, on_complete) for block in blocks])
        if len(blocks) == 1:
            label = f"sm{self.sm_id}.block{blocks[0].key}.complete"
        else:
            label = f"sm{self.sm_id}.wave{len(blocks)}.complete"
        handle = sim.schedule_at(completes_at, wave.fire, label=label)
        wave.handle = handle
        wave.seq = handle.seq
        wave.event = handle._event
        for block in blocks:
            completions[block.key] = wave
        if batching:
            self._wave_anchor.wave = wave

    def start_run(
        self,
        run: BlockRun,
        *,
        extra_latency_us: float,
        on_complete: Callable[[ThreadBlock], None],
    ) -> None:
        """Begin executing a vectorised span of fresh blocks (see :mod:`repro.gpu.blockrun`).

        The scalar twin of :meth:`start_blocks` for an all-fresh, jitter-free
        burst with no observer attached: one residency record, one wave entry
        (joined under exactly the per-block path's conditions), no block
        objects.  ``extra_latency_us`` is the issue latency the per-block
        path would have charged each block.
        """
        sim = self._sim
        now = sim.now
        if len(self._resident) + self._run_blocks + run.count > self.max_resident_blocks:
            raise RuntimeError(f"SM{self.sm_id}: no free slot for another thread block")
        self.utilization.set_busy(now)
        run.start_time_us = now
        self._runs[run.key] = run
        self._run_blocks += run.count
        # Same float-addition order as the per-block path's
        # ``now + (extra + remaining)``: completion instants must match bit
        # for bit (extra = tb issue latency, remaining = exec time).
        completes_at = now + (extra_latency_us + run.exec_time_us)
        completions = self._completions
        wave = self._wave_anchor.wave
        if wave is not None and completes_at == wave.time and sim._seq - 1 == wave.seq:
            event = wave.event
            if not event.fired and not event.cancelled:
                wave.entries.append((self, run, on_complete))
                completions[run.key] = wave
                wave.live += run.count
                return
        wave = Wave(completes_at, [(self, run, on_complete)])
        wave.live = run.count
        if run.count == 1:
            label = f"sm{self.sm_id}.block{run.key}.complete"
        else:
            label = f"sm{self.sm_id}.wave{run.count}.complete"
        handle = sim.schedule_at(completes_at, wave.fire, label=label)
        wave.handle = handle
        wave.seq = handle.seq
        wave.event = handle._event
        completions[run.key] = wave
        self._wave_anchor.wave = wave

    def _materialize_runs(self) -> None:
        """Convert every resident run into per-block state, in issue order."""
        for run in list(self._runs.values()):
            self._materialize_run(run)

    def _materialize_run(self, run: BlockRun) -> List[ThreadBlock]:
        """Replace one run by the exact per-block state it stands for.

        Creates the span's ThreadBlocks (registered with their launch,
        RUNNING since the run's start instant), makes them resident in issue
        order, and splices per-block entries into the run's wave at the
        run's exact position — so subsequent firing, eviction and completion
        are indistinguishable from the per-block path.
        """
        del self._runs[run.key]
        self._run_blocks -= run.count
        completions = self._completions
        wave = completions.pop(run.key, None)
        blocks = run.materialise(self.sm_id)
        resident = self._resident
        for block in blocks:
            resident[block.key] = block
        if wave is not None:
            entries = wave.entries
            for index, entry in enumerate(entries):
                if entry[1] is run:
                    on_complete = entry[2]
                    entries[index : index + 1] = [
                        (self, block, on_complete) for block in blocks
                    ]
                    break
            for block in blocks:
                completions[block.key] = wave
            # ``live`` already counts the run's blocks individually.
        return blocks

    def _finish_block(self, block: ThreadBlock, on_complete: Callable[[ThreadBlock], None]) -> None:
        """Internal completion callback for a resident block."""
        now = self._sim.now
        key = block.key
        wave = self._completions.pop(key, None)
        if wave is not None:
            wave.live -= 1
        self._resident.pop(key, None)
        block.complete(now)
        self.blocks_executed += 1
        if not self._resident:
            self.utilization.set_idle(now)
        if self.observer is not None:
            self.observer.on_block_completed(self, block)
        on_complete(block)

    def evict_all(self) -> list[ThreadBlock]:
        """Preempt every resident block (context-switch mechanism).

        Cancels the pending completion events (a wave event shared with
        blocks still owned elsewhere is only cancelled once its last owner
        lets go), updates each block's remaining execution time as of *now*
        and removes them from the SM.  Returns the evicted blocks so the
        caller can push them into the PTBQ once the context save completes.
        """
        if self._runs:
            # Preemption needs real blocks (remaining-time update, PTBQ
            # entries): convert runs first, preserving issue order.
            self._materialize_runs()
        now = self._sim.now
        evicted: list[ThreadBlock] = []
        for key, block in list(self._resident.items()):
            wave = self._completions.pop(key, None)
            if wave is not None:
                wave.live -= 1
                if wave.live == 0:
                    self._sim.cancel(wave.handle)
            block.preempt(now)
            evicted.append(block)
            del self._resident[key]
            self.blocks_preempted += 1
        if evicted:
            self.preemptions += 1
        if not self._resident:
            self.utilization.set_idle(now)
        if evicted and self.observer is not None:
            self.observer.on_blocks_evicted(self, evicted)
        return evicted

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def busy_fraction(self, now: Optional[float] = None) -> float:
        """Fraction of time the SM has had at least one resident block."""
        return self.utilization.utilization(now if now is not None else self._sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SM(id={self.sm_id}, state={self.state.value}, ksr={self.ksr_index}, "
            f"resident={self.resident_blocks}/{self.max_resident_blocks})"
        )
