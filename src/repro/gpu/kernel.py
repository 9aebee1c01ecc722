"""Kernels and kernel launches.

A :class:`KernelSpec` is the static description of a GPU kernel — the
quantities the paper's Table 1 reports per kernel (thread-block count,
per-block execution time, per-block register and shared-memory usage, the
measured occupancy limit).  A :class:`KernelLaunch` is one dynamic invocation
of a spec by a process: it creates the thread blocks as they are issued,
tracks issue/completion progress and records timing of the whole command.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.gpu.resources import ResourceUsage
from repro.gpu.thread_block import ThreadBlock, ThreadBlockState
from repro.utils.determinism import DeterministicJitter


class KernelState(enum.Enum):
    """Lifecycle of a kernel launch command."""

    #: Created by the host but not yet admitted into the execution engine's
    #: active queue (it may be waiting in a stream or a command buffer).
    PENDING = "pending"
    #: Admitted to the active queue / KSRT; thread blocks may be executing.
    ACTIVE = "active"
    #: Every thread block has completed.
    FINISHED = "finished"


@dataclass(frozen=True)
class KernelSpec:
    """Static description of a GPU kernel.

    Attributes mirror Table 1 of the paper.  ``avg_tb_time_us`` is the
    average execution time of one thread block; individual blocks receive a
    deterministic jitter around it (see :class:`KernelLaunch`).
    """

    name: str
    benchmark: str
    num_thread_blocks: int
    avg_tb_time_us: float
    usage: ResourceUsage
    #: Measured maximum number of concurrently resident blocks per SM
    #: (Table 1 "TBs/SM").  Used as an occupancy hint; ``None`` lets the
    #: occupancy calculator decide purely from resources.
    max_blocks_per_sm: Optional[int] = None
    #: Isolated execution time of the whole kernel as measured on the K20c
    #: (Table 1 "Avg. Time").  Kept for reporting and validation only; the
    #: simulator derives kernel duration from thread-block execution.
    measured_kernel_time_us: Optional[float] = None
    #: Number of launches of this kernel per application run (Table 1).
    launches_per_run: int = 1

    def __post_init__(self) -> None:
        if self.num_thread_blocks <= 0:
            raise ValueError(f"kernel {self.name}: num_thread_blocks must be positive")
        if self.avg_tb_time_us <= 0:
            raise ValueError(f"kernel {self.name}: avg_tb_time_us must be positive")
        if self.launches_per_run <= 0:
            raise ValueError(f"kernel {self.name}: launches_per_run must be positive")
        if self.max_blocks_per_sm is not None and self.max_blocks_per_sm < 1:
            raise ValueError(f"kernel {self.name}: max_blocks_per_sm must be >= 1")

    @property
    def qualified_name(self) -> str:
        """``benchmark.kernel`` identifier used in reports."""
        return f"{self.benchmark}.{self.name}"

    @property
    def nominal_kernel_time_us(self) -> float:
        """A crude serial-work estimate (blocks x per-block time).

        Only used for reporting; the simulated kernel time depends on how
        many SMs the scheduler gives the kernel.
        """
        return self.num_thread_blocks * self.avg_tb_time_us

    def scaled(self, tb_scale: float) -> "KernelSpec":
        """Return a copy with the thread-block count scaled by ``tb_scale``.

        Used by the reduced-scale experiment harness (DESIGN.md Sec. 3.6).
        Per-block execution times and resource usage are unchanged, so
        preemption latencies are preserved.
        """
        if tb_scale <= 0:
            raise ValueError("tb_scale must be positive")
        new_blocks = max(1, round(self.num_thread_blocks * tb_scale))
        return KernelSpec(
            name=self.name,
            benchmark=self.benchmark,
            num_thread_blocks=new_blocks,
            avg_tb_time_us=self.avg_tb_time_us,
            usage=self.usage,
            max_blocks_per_sm=self.max_blocks_per_sm,
            measured_kernel_time_us=self.measured_kernel_time_us,
            launches_per_run=self.launches_per_run,
        )


@dataclass
class KernelLaunch:
    """One dynamic invocation of a kernel by a process.

    The launch hands out its thread blocks.  Blocks are materialised lazily,
    when they are issued (:meth:`take_fresh_blocks`, :meth:`materialise_span`),
    and the launch keeps no reference to them, so kernels with hundreds of
    thousands of blocks never hold them all at once.
    """

    spec: KernelSpec
    launch_id: int
    context_id: int
    process_name: str = ""
    stream_id: int = 0
    priority: int = 0
    #: DSS token budget assigned to the kernel's process (Sec. 3.4).
    tokens: int = 0
    #: Jitter generator for per-block execution times; ``None`` disables
    #: jitter (every block takes exactly ``avg_tb_time_us``).
    jitter: Optional[DeterministicJitter] = None
    #: Called once when the last thread block of the launch completes.
    on_complete: Optional[Callable[["KernelLaunch", float], None]] = None

    state: KernelState = KernelState.PENDING
    #: Time the host issued the launch command (set by the host model).
    issue_time_us: Optional[float] = None
    #: Time the launch was admitted to the active queue.
    activation_time_us: Optional[float] = None
    #: Time the last thread block completed.
    completion_time_us: Optional[float] = None

    _next_block_index: int = 0
    _completed_blocks: int = 0

    # ------------------------------------------------------------------
    # Thread-block management
    # ------------------------------------------------------------------
    @functools.cached_property
    def _jitter_prefix(self) -> int:
        """Hash state of ``(seed, qualified name, launch id)``, shared by every block.

        Computed on first issue (during the run, never while systems are
        built), so each block's jitter costs one SplitMix round.
        """
        return self.jitter.prefix(self.spec.qualified_name, self.launch_id)

    def block_execution_time(self, block_index: int) -> float:
        """Deterministic execution time of block ``block_index``."""
        base = self.spec.avg_tb_time_us
        if self.jitter is None:
            return base
        return self.jitter.scaled_at(base, self._jitter_prefix, block_index)

    def take_fresh_blocks(self, count: int) -> List[ThreadBlock]:
        """Materialise up to ``count`` never-issued blocks (SM-driver bulk issue).

        Blocks get consecutive indices in issue order and the deterministic
        execution times of :meth:`block_execution_time`; returns fewer blocks
        when the grid runs out.
        """
        start = self._next_block_index
        end = min(start + count, self.spec.num_thread_blocks)
        if end <= start:
            return []
        self._next_block_index = end
        launch_id = self.launch_id
        base = self.spec.avg_tb_time_us
        jitter = self.jitter
        if jitter is None:
            return [ThreadBlock(launch_id, index, base) for index in range(start, end)]
        prefix = self._jitter_prefix
        scaled_at = jitter.scaled_at
        return [
            ThreadBlock(launch_id, index, scaled_at(base, prefix, index))
            for index in range(start, end)
        ]

    def take_fresh_span(self, count: int) -> tuple[int, int]:
        """Claim up to ``count`` never-issued blocks *without* materialising.

        Returns ``(first_index, taken)``.  The vectorised issue path
        (:mod:`repro.gpu.blockrun`) represents the claimed span as one
        :class:`~repro.gpu.blockrun.BlockRun`; index assignment is identical
        to :meth:`take_fresh_blocks`, and :meth:`materialise_span` recreates
        the block objects on demand.
        """
        start = self._next_block_index
        end = min(start + count, self.spec.num_thread_blocks)
        self._next_block_index = end
        return start, end - start

    def materialise_span(
        self, first_index: int, count: int, *, sm_id: int, start_time_us: float
    ) -> List[ThreadBlock]:
        """Create the ThreadBlocks of a claimed span, running since ``start_time_us``.

        Produces exactly the objects the per-block path would hold at this
        point: RUNNING on ``sm_id``, first/last start at the issue instant,
        execution times from :meth:`block_execution_time`.
        """
        launch_id = self.launch_id
        out: List[ThreadBlock] = []
        for index in range(first_index, first_index + count):
            block = ThreadBlock(launch_id, index, self.block_execution_time(index))
            block.state = ThreadBlockState.RUNNING
            block.sm_id = sm_id
            block.first_start_time_us = start_time_us
            block.last_start_time_us = start_time_us
            out.append(block)
        return out

    def note_completed(self, count: int, now: float) -> None:
        """Record the completion of ``count`` blocks: one block, or a span.

        When the last block completes, the launch transitions to FINISHED and
        the ``on_complete`` callback (installed by the host model) fires.
        """
        self._completed_blocks += count
        if self._completed_blocks > self.spec.num_thread_blocks:  # pragma: no cover
            raise RuntimeError("more thread blocks completed than the kernel has")
        if self.all_blocks_completed:
            self.state = KernelState.FINISHED
            self.completion_time_us = now
            if self.on_complete is not None:
                self.on_complete(self, now)

    # ------------------------------------------------------------------
    # Progress queries
    # ------------------------------------------------------------------
    @property
    def has_unissued_blocks(self) -> bool:
        """Whether any block has never been issued to an SM."""
        return self._next_block_index < self.spec.num_thread_blocks

    @property
    def unissued_blocks(self) -> int:
        """Number of blocks that have never been issued to an SM."""
        return self.spec.num_thread_blocks - self._next_block_index

    @property
    def completed_blocks(self) -> int:
        """Number of blocks that have finished execution."""
        return self._completed_blocks

    @property
    def all_blocks_completed(self) -> bool:
        """Whether every thread block of the launch has completed."""
        return self._completed_blocks >= self.spec.num_thread_blocks

    @property
    def is_finished(self) -> bool:
        """Whether the launch is in the FINISHED state."""
        return self.state is KernelState.FINISHED

    def describe(self) -> str:
        """Short human-readable identifier used in error messages and logs."""
        return f"{self.spec.qualified_name}#{self.launch_id}(ctx={self.context_id})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelLaunch({self.describe()}, state={self.state.value}, "
            f"issued={self._next_block_index}/{self.spec.num_thread_blocks}, "
            f"done={self._completed_blocks})"
        )
