"""The SM-draining preemption mechanism (paper Sec. 3.2).

Preemption happens on a thread-block boundary: the SM driver stops issuing
new thread blocks to the reserved SM and the preemption completes when every
resident thread block finishes execution.  Since thread blocks are
independent and each one carries its own state, nothing has to be saved or
restored.

The drawback is the unpredictable latency: it depends on the remaining
execution time of the currently resident blocks and the mechanism cannot
preempt kernels with very long (or persistent/never-terminating) thread
blocks at all.  The repository demonstrates that failure mode in
``tests/core/test_preemption_mechanisms.py`` and the persistent-kernel
example.  The ``hybrid`` and ``adaptive`` preemption controllers
(:mod:`repro.core.preemption.controller`) exist precisely to sidestep it:
they only route a preemption request here when the estimated drain time is
acceptable, falling back to the context switch otherwise.
"""

from __future__ import annotations

from repro.core.preemption.base import PreemptionMechanism
from repro.gpu.sm import StreamingMultiprocessor
from repro.registry import register_mechanism


@register_mechanism("draining", "drain", "sm_draining")
class DrainingMechanism(PreemptionMechanism):
    """Preempt by stopping issue and waiting for resident blocks to finish."""

    name = "draining"

    def initiate(self, sm: StreamingMultiprocessor) -> None:
        """Stop issuing to ``sm``; complete immediately if it is empty.

        Stopping the issue of new blocks requires no action here: the SM
        driver never issues blocks to an SM whose SMST state is RESERVED.
        """
        if sm.is_empty:
            # Zero-latency completion still goes through the event queue so
            # that the policy's view of the SM does not change re-entrantly
            # in the middle of its own decision procedure.
            self.host.simulator.schedule(
                0.0,
                lambda: self.host.preemption_complete(sm.sm_id, []),
                label=f"draining.sm{sm.sm_id}.empty",
            )

    def on_block_completed(self, sm: StreamingMultiprocessor) -> None:
        """The SM is free once its last resident block has finished."""
        if sm.is_empty:
            self.host.preemption_complete(sm.sm_id, [])
