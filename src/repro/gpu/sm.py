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


class Wave:
    """One completion event shared by thread blocks finishing at one instant.

    A wave may span several SMs: entries are ``(sm, unit, on_complete)``
    triples in exact per-block-event order, where a unit is a
    :class:`ThreadBlock` or a :class:`BlockRun` span of fresh blocks.  Firing
    retires each unit through its own SM's
    :meth:`StreamingMultiprocessor._retire`, skipping units whose completion
    was superseded (evicted, or evicted and re-issued with a new event) via an
    identity check against the wave the unit is currently registered under.
    """

    __slots__ = ("time", "seq", "handle", "event", "entries", "live")

    def __init__(self, time: float, entries: list, live: int):
        self.time = time
        self.seq = -1
        self.handle: Optional[EventHandle] = None
        #: The underlying :class:`~repro.sim.events.Event` (join checks read
        #: its ``fired``/``cancelled`` flags without property indirection).
        self.event = None
        self.entries = entries
        #: Blocks whose completion this event still owns (a run counts each
        #: of its blocks); evictions decrement it and cancel the event when
        #: it reaches zero, so a fully-preempted wave behaves exactly like
        #: cancelled per-block events (and never extends the run as a zombie
        #: no-op).
        self.live = live

    def fire(self) -> None:
        entries = self.entries
        first_sm = entries[0][0]
        # Attributed to the first SM of the wave; summing the counter over
        # all SMs yields the exact number of fired block-carrying heap
        # events, which the scale benchmark uses to convert raw event counts
        # into block-equivalent throughput.
        first_sm.completion_waves_fired += 1
        hist = first_sm.metrics_wave_hist
        if hist is not None:
            # Wave size in *blocks*: a span counts each of its blocks.
            hist.observe(sum(entry[1].count for entry in entries))
        # A retire may rebuild another SM's span of this wave as blocks
        # (``resident()``), splicing their entries in after the current one;
        # list iteration reads the length at each step, so they fire too.
        for sm, unit, on_complete in entries:
            if sm._completions.get(unit.key) is self:
                sm._retire(unit, on_complete)


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


class UtilizationTracker:
    """Tracks the fraction of time a resource spends busy.

    The resource reports ``set_busy``/``set_idle`` transitions; the tracker
    accumulates busy time between them.  An idle gap of zero length does not
    split a busy interval: ``set_busy`` at the instant of the last
    ``set_idle`` resumes it, so the float sum does not depend on whether the
    resource emptied and refilled within one instant.
    """

    def __init__(self, start_time: float = 0.0):
        self._busy_since: Optional[float] = None
        #: End of the last busy interval, added to ``_busy_time`` only when a
        #: later ``set_busy`` starts a new one.
        self._idle_since: Optional[float] = None
        self._busy_time = 0.0
        self._start_time = start_time

    def set_busy(self, now: float) -> None:
        """Mark the resource busy starting at ``now`` (idempotent)."""
        idle_since = self._idle_since
        if idle_since is not None:
            self._idle_since = None
            if now == idle_since:
                return
            self._busy_time += idle_since - self._busy_since
            self._busy_since = now
        elif self._busy_since is None:
            self._busy_since = now

    def set_idle(self, now: float) -> None:
        """Mark the resource idle at ``now`` (idempotent)."""
        if self._busy_since is not None and self._idle_since is None:
            self._idle_since = now

    def busy_time(self, now: float) -> float:
        """Total busy time observed up to ``now``."""
        if self._busy_since is None:
            return self._busy_time
        end = self._idle_since if self._idle_since is not None else now
        return self._busy_time + (end - self._busy_since)

    def utilization(self, now: float) -> float:
        """Busy fraction in ``[0, 1]`` over the window ``[start_time, now]``."""
        span = now - self._start_time
        if span <= 0:
            return 0.0
        return min(1.0, self.busy_time(now) / span)


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

        #: Optional instrumentation sink (the observers that override a
        #: :class:`repro.sim.observers.SMHooks` hook), notified of block
        #: start/completion/eviction and SM configure/release; it must never
        #: mutate simulation state.
        self.observer: Optional[object] = None

        #: Optional :class:`repro.obs.LogHistogram` fed one sample per fired
        #: wave (the wave size in blocks).  A None-gated raw attribute, not
        #: an SM hook: an observer of SM hooks turns spans into blocks,
        #: while this sample rides the retire path's per-wave counter update.
        self.metrics_wave_hist = None

        self.utilization = UtilizationTracker(simulator.now)
        self.blocks_executed = 0
        self.blocks_preempted = 0
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
        if not self.is_empty:
            raise RuntimeError(f"SM{self.sm_id}: configure() while thread blocks are resident")
        self.ksr_index = ksr_index
        self.context_id_register = context_id
        self.page_table_register = page_table_base
        self.max_resident_blocks = max_resident_blocks
        self.shared_memory_config = shared_memory_config
        if self.observer is not None:
            self.observer.on_sm_configured(self)

    def release(self) -> None:
        """Clear the SM's kernel/context registers."""
        if not self.is_empty:
            raise RuntimeError(f"SM{self.sm_id}: release() while thread blocks are resident")
        self.ksr_index = None
        self.context_id_register = None
        self.page_table_register = None
        self.max_resident_blocks = 0
        # Reset the shared-memory partition select: a released SM must not
        # leak the previous kernel's configuration into the next setup.
        self.shared_memory_config = self.config.default_shared_memory_bytes
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
                1,
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
            self._schedule_completion(completes_at, blocks, on_complete, batching, len(blocks))

    def _schedule_completion(
        self,
        completes_at: float,
        blocks: list,
        on_complete: Callable[[ThreadBlock], None],
        batching: bool,
        live: int,
    ) -> None:
        """Create (or join) the completion event for ``blocks``.

        ``blocks`` holds thread blocks, or one :class:`BlockRun`; ``live`` is
        the number of blocks they stand for.  A run's key is its first
        block's, so a run gets the label its blocks would have had.

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
                    wave.live += live
                    return
        wave = Wave(completes_at, [(self, block, on_complete) for block in blocks], live)
        if live == 1:
            # Same text as formatting the key tuple, without its repr.
            launch_id, index = blocks[0].key
            label = f"sm{self.sm_id}.block({launch_id}, {index}).complete"
        else:
            label = f"sm{self.sm_id}.wave{live}.complete"
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
        path would have charged each block.  Runs are only issued with wave
        batching on.
        """
        now = self._sim.now
        if len(self._resident) + self._run_blocks + run.count > self.max_resident_blocks:
            raise RuntimeError(f"SM{self.sm_id}: no free slot for another thread block")
        self.utilization.set_busy(now)
        run.start_time_us = now
        self._runs[run.key] = run
        self._run_blocks += run.count
        # Same float-addition order as the per-block path's
        # ``now + (extra + remaining)``: completion instants must match bit
        # for bit (extra = tb issue latency, remaining = exec time).
        self._schedule_completion(
            now + (extra_latency_us + run.exec_time_us), [run], on_complete, True, run.count
        )

    def _materialize_runs(self) -> None:
        """Replace every resident span by the exact per-block state it stands for.

        Creates each span's ThreadBlocks (RUNNING since the span's start
        instant), makes them resident in issue order, and splices per-block
        entries into the span's wave at the span's exact position — so later
        firing, eviction and completion are indistinguishable from the
        per-block path.  ``live`` already counts a span's blocks one by one.
        """
        resident = self._resident
        completions = self._completions
        for run in self._runs.values():
            wave = completions.pop(run.key)
            blocks = run.materialise(self.sm_id)
            for block in blocks:
                resident[block.key] = block
                completions[block.key] = wave
            entries = wave.entries
            for index, entry in enumerate(entries):
                if entry[1] is run:
                    on_complete = entry[2]
                    entries[index : index + 1] = [
                        (self, block, on_complete) for block in blocks
                    ]
                    break
        self._runs.clear()
        self._run_blocks = 0

    def _retire(self, unit: ThreadBlock | BlockRun, on_complete: Callable) -> None:
        """Retire a unit whose completion fired: a thread block or a span.

        Spans never live on an observed SM (installing an observer rebuilds
        them as blocks), so the observer only ever sees thread blocks.
        """
        now = self._sim.now
        key = unit.key
        count = unit.count
        self._completions.pop(key).live -= count
        if unit.__class__ is BlockRun:
            del self._runs[key]
            self._run_blocks -= count
        else:
            del self._resident[key]
            unit.complete(now)
        self.blocks_executed += count
        if not self._resident and not self._run_blocks:
            self.utilization.set_idle(now)
        if self.observer is not None:
            self.observer.on_block_completed(self, unit)
        on_complete(unit)

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
            f"SM(id={self.sm_id}, ksr={self.ksr_index}, "
            f"resident={self.resident_blocks}/{self.max_resident_blocks})"
        )
