"""Thread blocks: the unit of work the SM driver issues to SMs.

The paper's simulation (and ours) works at thread-block granularity: a block
occupies its share of an SM's resources for its execution time, may be
preempted by the context-switch mechanism (saving its remaining work), and is
independent of every other block, so it can be re-issued to any SM later.
"""

from __future__ import annotations

import enum
from typing import Optional


class ThreadBlockState(enum.Enum):
    """Lifecycle of a thread block."""

    #: Created but not currently resident on any SM (never issued, or
    #: preempted and waiting in a PTBQ).
    PENDING = "pending"
    #: Resident and executing on an SM.
    RUNNING = "running"
    #: Preempted by the context-switch mechanism; waiting to be re-issued.
    PREEMPTED = "preempted"
    #: Finished execution.
    COMPLETED = "completed"


class ThreadBlock:
    """One thread block of a kernel launch.

    A plain ``__slots__`` class: large-GPU scenarios materialise hundreds of
    thousands of blocks, and block attribute access sits on the SM's
    completion hot path.

    Attributes
    ----------
    kernel_launch_id:
        Identifier of the owning :class:`~repro.gpu.kernel.KernelLaunch`.
    block_index:
        Index of the block within its kernel grid.
    execution_time_us:
        Total execution time the block needs on an SM (traced time with
        deterministic jitter applied).
    remaining_time_us:
        Work left to do.  Equal to ``execution_time_us`` until the block is
        preempted mid-flight by a context switch.
    key:
        ``(launch id, block index)`` pair identifying the block (precomputed:
        both components are immutable).
    """

    __slots__ = (
        "kernel_launch_id",
        "block_index",
        "execution_time_us",
        "remaining_time_us",
        "state",
        "sm_id",
        "first_start_time_us",
        "last_start_time_us",
        "completion_time_us",
        "preemption_count",
        "key",
    )

    #: Blocks this unit stands for: the SM retires a block as a span of one
    #: (see :class:`~repro.gpu.blockrun.BlockRun`).
    count = 1

    def __init__(
        self,
        kernel_launch_id: int,
        block_index: int,
        execution_time_us: float,
        remaining_time_us: Optional[float] = None,
        state: ThreadBlockState = ThreadBlockState.PENDING,
        sm_id: Optional[int] = None,
        first_start_time_us: Optional[float] = None,
        last_start_time_us: Optional[float] = None,
        completion_time_us: Optional[float] = None,
        preemption_count: int = 0,
    ):
        if execution_time_us <= 0:
            raise ValueError("execution_time_us must be positive")
        self.kernel_launch_id = kernel_launch_id
        self.block_index = block_index
        self.execution_time_us = execution_time_us
        self.remaining_time_us = (
            execution_time_us if remaining_time_us is None else remaining_time_us
        )
        self.state = state
        #: SM the block is currently resident on (``None`` when not resident).
        self.sm_id = sm_id
        #: Simulation time the block first started executing.
        self.first_start_time_us = first_start_time_us
        #: Simulation time the block last (re)started executing.
        self.last_start_time_us = last_start_time_us
        #: Simulation time the block completed.
        self.completion_time_us = completion_time_us
        #: How many times the block has been preempted by a context switch.
        self.preemption_count = preemption_count
        self.key = (kernel_launch_id, block_index)

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def start(self, sm_id: int, now: float) -> None:
        """Mark the block as running on ``sm_id`` starting at ``now``."""
        if self.state not in (ThreadBlockState.PENDING, ThreadBlockState.PREEMPTED):
            raise ValueError(f"cannot start a block in state {self.state}")
        self.state = ThreadBlockState.RUNNING
        self.sm_id = sm_id
        self.last_start_time_us = now
        if self.first_start_time_us is None:
            self.first_start_time_us = now

    def preempt(self, now: float) -> None:
        """Preempt the running block (context-switch mechanism).

        The remaining work is computed from the time executed since the last
        (re)start; the block returns to the PREEMPTED state and leaves its SM.
        """
        if self.state is not ThreadBlockState.RUNNING:
            raise ValueError(f"cannot preempt a block in state {self.state}")
        if self.last_start_time_us is None:  # pragma: no cover - defensive
            raise RuntimeError("running block has no start time")
        executed = now - self.last_start_time_us
        self.remaining_time_us = max(0.0, self.remaining_time_us - executed)
        self.state = ThreadBlockState.PREEMPTED
        self.sm_id = None
        self.preemption_count += 1

    def complete(self, now: float) -> None:
        """Mark the block as completed at ``now``."""
        if self.state is not ThreadBlockState.RUNNING:
            raise ValueError(f"cannot complete a block in state {self.state}")
        self.state = ThreadBlockState.COMPLETED
        self.remaining_time_us = 0.0
        self.completion_time_us = now
        self.sm_id = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_resident(self) -> bool:
        """Whether the block currently occupies SM resources."""
        return self.state is ThreadBlockState.RUNNING

    @property
    def was_preempted(self) -> bool:
        """Whether the block has ever been preempted."""
        return self.preemption_count > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThreadBlock(launch={self.kernel_launch_id}, idx={self.block_index}, "
            f"state={self.state.value}, remaining={self.remaining_time_us:.2f}us)"
        )
