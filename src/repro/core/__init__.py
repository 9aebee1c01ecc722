"""The paper's primary contribution: preemption mechanisms, the hardware
scheduling framework, and scheduling policies.

* :mod:`repro.core.preemption` — the two preemption mechanisms of Sec. 3.2
  (context switch and SM draining) and the per-request preemption
  controllers (``static``, ``hybrid``, ``adaptive``) that pick between them.
* :mod:`repro.core.framework` — the scheduling framework of Sec. 3.3
  (command buffers, active queue, KSRT, SMST, PTBQ).
* :mod:`repro.core.policies` — scheduling policies built on the framework:
  FCFS (baseline), non-preemptive and preemptive priority queues, and the
  Dynamic Spatial Sharing policy of Sec. 3.4.
"""

from repro.core.framework import (
    ActiveQueue,
    CommandBufferSet,
    KernelStatusEntry,
    KernelStatusRegisterTable,
    PreemptedThreadBlockQueue,
    SchedulingFramework,
    SMStatusEntry,
    SMStatusTable,
)
from repro.core.preemption import (
    AdaptiveController,
    ContextSwitchMechanism,
    DrainingMechanism,
    HybridController,
    PreemptionController,
    PreemptionMechanism,
    PreemptionRequest,
    StaticController,
)
from repro.core.policies import (
    DynamicSpatialSharingPolicy,
    FCFSPolicy,
    NonPreemptivePriorityPolicy,
    PreemptivePriorityPolicy,
    SchedulingPolicy,
)

__all__ = [
    "ActiveQueue",
    "CommandBufferSet",
    "KernelStatusEntry",
    "KernelStatusRegisterTable",
    "PreemptedThreadBlockQueue",
    "SchedulingFramework",
    "SMStatusEntry",
    "SMStatusTable",
    "PreemptionMechanism",
    "ContextSwitchMechanism",
    "DrainingMechanism",
    "PreemptionController",
    "PreemptionRequest",
    "StaticController",
    "HybridController",
    "AdaptiveController",
    "SchedulingPolicy",
    "FCFSPolicy",
    "NonPreemptivePriorityPolicy",
    "PreemptivePriorityPolicy",
    "DynamicSpatialSharingPolicy",
]
