"""Application traces.

The paper's simulator is *trace driven*: each benchmark application is
recorded as the sequence of CUDA API calls it makes (with timestamps for the
CPU phases between them) plus per-kernel execution traces collected on the
real GPU.  This package defines the trace schema
(:mod:`repro.trace.schema`) and synthetic trace generation from Table 1
models (:mod:`repro.trace.generator`).
"""

from repro.trace.schema import (
    ApplicationTrace,
    CpuPhaseOp,
    DeviceSyncOp,
    FreeOp,
    KernelLaunchOp,
    MallocOp,
    MemcpyOp,
    StreamSyncOp,
    TraceOp,
)
from repro.trace.generator import TraceGenerator

__all__ = [
    "ApplicationTrace",
    "TraceOp",
    "CpuPhaseOp",
    "MallocOp",
    "FreeOp",
    "MemcpyOp",
    "KernelLaunchOp",
    "StreamSyncOp",
    "DeviceSyncOp",
    "TraceGenerator",
]
