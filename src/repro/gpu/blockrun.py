"""Vectorised thread-block state: runs of blocks behind one descriptor.

Large-GPU steady state is a loop of "a wave of same-instant completions
fires, every affected SM refills with fresh, jitter-free blocks of the same
kernel".  The per-block representation pays, for each block and generation,
one :class:`~repro.gpu.thread_block.ThreadBlock` allocation, two residency
dict inserts/deletes, and per-block ``start``/``complete``/``notify`` calls —
none of which is observable unless something actually inspects the blocks.

A :class:`BlockRun` collapses such a refill into one scalar descriptor: a
contiguous span of never-issued blocks of one launch, all started at the
same instant with the same execution time (no jitter), hence one shared
completion instant.  The SM driver issues a run with one call
(:meth:`~repro.gpu.sm.StreamingMultiprocessor.start_run`), the wave event
carries one entry for it, and completion retires the whole span in O(1)
(:meth:`~repro.gpu.kernel.KernelLaunch.note_span_completed`).

The representation is *reversible*: the moment anything needs real blocks —
an observer is attached, the SM is preempted (``evict_all``), a policy
builds a preemption request over ``resident()``, a per-block issue lands on
the SM, or the kernel is about to finish — the run is materialised into the
exact :class:`ThreadBlock` objects (and wave entries, in the exact event
positions) the per-block path would have produced, and execution continues
on the classic path.  ``tests/gpu/test_wave_equivalence.py`` proves the
whole construction byte-identical to the forced per-block engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.gpu.kernel import KernelLaunch
    from repro.gpu.thread_block import ThreadBlock


class BlockRun:
    """A contiguous span of resident fresh blocks sharing one completion.

    Attributes
    ----------
    launch:
        The owning :class:`~repro.gpu.kernel.KernelLaunch`.
    first_index / count:
        The span ``[first_index, first_index + count)`` of the launch's grid.
    exec_time_us:
        The (jitter-free) per-block execution time; every block of the span
        shares it, which is what makes one completion instant exact.
    start_time_us:
        Instant the span started executing (set by ``start_run``).
    key:
        ``(launch_id, first_index)`` — deliberately identical to the first
        block's :attr:`~repro.gpu.thread_block.ThreadBlock.key`, so run
        completions index the SM's completion map (and single-block event
        labels render) exactly like the per-block path's.
    """

    __slots__ = ("launch", "first_index", "count", "exec_time_us", "start_time_us", "key")

    def __init__(
        self,
        launch: "KernelLaunch",
        first_index: int,
        count: int,
        exec_time_us: float,
    ):
        self.launch = launch
        self.first_index = first_index
        self.count = count
        self.exec_time_us = exec_time_us
        self.start_time_us = 0.0
        self.key = (launch.launch_id, first_index)

    def materialise(self, sm_id: int) -> List["ThreadBlock"]:
        """The exact ThreadBlocks the per-block issue path would have made."""
        return self.launch.materialise_span(
            self.first_index,
            self.count,
            sm_id=sm_id,
            start_time_us=self.start_time_us,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockRun(launch={self.launch.launch_id}, "
            f"first={self.first_index}, count={self.count}, "
            f"exec={self.exec_time_us:.2f}us)"
        )


__all__ = ["BlockRun"]
