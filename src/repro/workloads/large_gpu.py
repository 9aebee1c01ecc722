"""The ``large_gpu`` scenario family: modern-scale GPUs, proportional work.

The paper evaluates a 13-SM Kepler K20c; this family scales the simulated
GPU to modern SM counts (8, 32 and 128 SMs by default) and grows the
workload *proportionally* so every configuration keeps its SMs saturated:

* the number of processes scales with the SM count,
* every synthetic application's kernel grids (and data-transfer sizes) are
  multiplied by the SM count through the fuzzer's ``-x<multiplier>`` name
  suffix (see :func:`repro.workloads.synthetic.synthetic_app_name`), and
* per-thread-block execution-time jitter is disabled (``tb_time_cv = 0``),
  which both matches the regular grids of throughput kernels and lets the
  wave-level SM execution path (:mod:`repro.gpu.sm`) collapse each issue
  burst into a single aggregated completion event.

Scenarios are plain :class:`~repro.scenario.ScenarioSpec` values built on
top of the synthetic fuzzer, so they serialise, fan out through
:class:`~repro.runner.BatchRunner` workers, and compose with ``validate=``
/ ``trace=`` like every other scenario.  The ``scale`` experiment
(:mod:`repro.experiments.scale`) and the repository benchmark's closed loops
(``perfbench/``: ``closed_128sm``, ``closed_64sm_observed``) both run this
family.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.scenario import ScenarioSpec, SchemeSpec
from repro.workloads.synthetic import generate_synthetic_scenario

#: The SM counts of the default scaling sweep (paper-scale to modern-scale).
LARGE_GPU_SM_COUNTS: Tuple[int, ...] = (8, 32, 128)

#: Base seed of the family (offset so it never collides with the fuzzer's
#: default sub-seed ranges).
LARGE_GPU_SEED = 514


KIB = 1024


def large_gpu_config_overrides(
    num_sms: int, *, wave_batching: bool = True
) -> Dict[str, Any]:
    """The :class:`~repro.gpu.config.SystemConfig` overrides of the family.

    Besides the SM count, the per-SM resources are grown to modern-GPU
    proportions (double the Kepler register file, 64-128 KB shared-memory
    partitions) so that occupancy — not a 2012-era register budget — bounds
    residency, as it does on the GPUs this family models.

    ``wave_batching=False`` forces the exact per-block completion-event path
    (one heap event per thread block); the equivalence fuzz uses it to prove
    the wave-batched path is observably identical.
    """
    if num_sms < 1:
        raise ValueError("num_sms must be positive")
    gpu: Dict[str, Any] = {
        "num_sms": num_sms,
        "registers_per_sm": 131072,
        "shared_memory_configs": [64 * KIB, 96 * KIB, 128 * KIB],
    }
    if not wave_batching:
        gpu["wave_batching"] = False
    return {"gpu": gpu, "tb_time_cv": 0.0}


def large_gpu_process_count(num_sms: int) -> int:
    """Processes used for ``num_sms`` (proportional, bounded for host cost)."""
    return max(4, min(num_sms // 4, 32))


def large_gpu_block_multiplier(num_sms: int) -> int:
    """Grid multiplier for ``num_sms``: proportional work per SM.

    Four grid-multiples per SM keeps every SM saturated through the whole
    run (thread-block work dominates setup/policy transients), which is the
    regime the scaling benchmark measures.
    """
    return 4 * num_sms


def generate_large_gpu_scenario(
    num_sms: int,
    *,
    seed: int = LARGE_GPU_SEED,
    scale: str = "smoke",
    scheme: Optional[SchemeSpec] = None,
    validate: bool = False,
    trace: bool = False,
    metrics: Optional[dict] = None,
    wave_batching: bool = True,
) -> ScenarioSpec:
    """One ``large_gpu`` scenario for a GPU with ``num_sms`` SMs.

    Built through :func:`~repro.workloads.synthetic.generate_synthetic_scenario`
    so the per-application shapes stay seed-derived and reproducible; the SM
    count only picks the hardware overrides, the process count and the grid
    multiplier.  The default scheme exercises the paper's contribution —
    priority scheduling with context-switch preemption — so preemptions (and
    the wave path's exact per-block fallback) occur at every size.
    """
    if scheme is None:
        scheme = SchemeSpec(
            policy="ppq",
            mechanism="context_switch",
            transfer_policy="npq",
            name=f"large_gpu_{num_sms}sm",
        )
    processes = large_gpu_process_count(num_sms)
    return generate_synthetic_scenario(
        seed * 1000 + num_sms,
        scale=scale,
        validate=validate,
        trace=trace,
        metrics=metrics,
        scheme=scheme,
        min_processes=processes,
        max_processes=processes,
        block_multiplier=large_gpu_block_multiplier(num_sms),
        config_overrides=large_gpu_config_overrides(
            num_sms, wave_batching=wave_batching
        ),
    )


def generate_large_gpu_scenarios(
    sm_counts: Sequence[int] = LARGE_GPU_SM_COUNTS,
    *,
    seed: int = LARGE_GPU_SEED,
    scale: str = "smoke",
    scheme: Optional[SchemeSpec] = None,
    validate: bool = False,
    trace: bool = False,
    metrics: Optional[dict] = None,
    wave_batching: bool = True,
) -> Tuple[ScenarioSpec, ...]:
    """The scaling sweep: one scenario per SM count, smallest first."""
    if not sm_counts:
        raise ValueError("sm_counts must not be empty")
    return tuple(
        generate_large_gpu_scenario(
            num_sms,
            seed=seed,
            scale=scale,
            scheme=scheme,
            validate=validate,
            trace=trace,
            metrics=metrics,
            wave_batching=wave_batching,
        )
        for num_sms in sorted(sm_counts)
    )


__all__ = [
    "LARGE_GPU_SM_COUNTS",
    "LARGE_GPU_SEED",
    "large_gpu_config_overrides",
    "large_gpu_process_count",
    "generate_large_gpu_scenario",
    "generate_large_gpu_scenarios",
]
