"""Seeded synthetic workload generation (the scenario fuzzer).

The paper evaluates fixed Parboil mixes; the ROADMAP's north star is "as many
scenarios as you can imagine".  This module derives *arbitrary* multiprogram
scenarios from a single integer seed, entirely through
:mod:`repro.utils.determinism` (no global RNG state), so that:

* the same seed always produces byte-identical
  :class:`~repro.scenario.ScenarioSpec` JSON, on every platform and process
  (the fuzzer's reproducibility contract), and
* every generated dimension is randomised: kernel grid sizes, per-block
  register / shared-memory / thread footprints, CPU-vs-transfer phase
  balance, kernel launch counts, process counts, arrival staggers,
  priorities and the scheduling scheme itself.

Synthetic applications are first-class citizens of the declarative API:
their names encode their derivation (``syn-<seed>-<index>``), so a
:class:`SyntheticSuite` can rebuild the exact trace from the name alone in
any worker process — scenarios fan out through
:class:`repro.runner.BatchRunner` exactly like Parboil ones, and the two can
be mixed in a single workload.  Combined with ``validate=True`` (the
:mod:`repro.validation` layer) this turns every imagined scenario into a
self-checking test of the simulator's conservation laws:

>>> from repro.workloads.synthetic import generate_synthetic_scenario
>>> from repro.runner import execute_scenario
>>> spec = generate_synthetic_scenario(7, scale="smoke", validate=True)
>>> record = execute_scenario(spec)
>>> record.ok
True
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.scenario import ScenarioSpec, SchemeSpec
from repro.trace.generator import KernelPhase, TraceGenerator
from repro.trace.schema import ApplicationTrace
from repro.gpu.kernel import KernelSpec
from repro.gpu.resources import ResourceUsage
from repro.utils.determinism import hash_uniform
from repro.workloads.parboil import ParboilSuite
from repro.workloads.scale import WorkloadScale

KIB = 1024
MIB = 1024 * KIB

#: Application-name prefix marking synthetic (seed-derived) applications.
SYNTHETIC_PREFIX = "syn"
#: ``syn-<seed>-<index>`` plus an optional ``-x<multiplier>`` suffix that
#: scales the kernel grids (and data-transfer sizes) of the derived
#: application — the lever the ``large_gpu`` scenario family uses to grow
#: workloads proportionally with the SM count.
_NAME_RE = re.compile(r"^syn-(\d+)-(\d+)(?:-x(\d+))?$")

#: Policy / mechanism / controller / transfer-policy pools the scenario
#: fuzzer draws from.  Registry names — extend these to fuzz custom
#: components too.  ``None`` in the controller pool keeps the legacy
#: controller-less spec shape (static selection of the drawn mechanism).
SCHEME_POLICIES: Tuple[str, ...] = ("fcfs", "npq", "ppq", "ppq_shared", "dss")
SCHEME_MECHANISMS: Tuple[str, ...] = ("context_switch", "draining")
SCHEME_CONTROLLERS: Tuple[Optional[str], ...] = (None, "static", "hybrid", "adaptive")
SCHEME_TRANSFER_POLICIES: Tuple[str, ...] = ("fcfs", "npq")

#: Namespace component so synthetic draws never collide with other users of
#: :func:`repro.utils.determinism.hash_uniform`.
_NS = "repro.synthetic"


def _u(seed: int, *key) -> float:
    """Deterministic uniform sample in [0, 1) for (seed, key)."""
    return hash_uniform(_NS, seed, *key)


def _int_between(lo: int, hi: int, seed: int, *key) -> int:
    """Deterministic integer in [lo, hi] (inclusive)."""
    if hi < lo:
        raise ValueError("hi must be >= lo")
    return lo + min(hi - lo, int(_u(seed, *key) * (hi - lo + 1)))


def _pick(options: Sequence, seed: int, *key):
    """Deterministic choice from a non-empty sequence."""
    return options[_int_between(0, len(options) - 1, seed, *key)]


# ----------------------------------------------------------------------
# Application names
# ----------------------------------------------------------------------
def synthetic_app_name(seed: int, index: int, multiplier: int = 1) -> str:
    """The canonical name of synthetic application ``index`` of ``seed``.

    ``multiplier`` > 1 appends a ``-x<multiplier>`` suffix: the application
    keeps the same seed-derived shape but its kernel grids and transfer sizes
    are scaled by the multiplier (see :func:`build_synthetic_trace`).
    """
    if seed < 0 or index < 0:
        raise ValueError("seed and index must be non-negative")
    if multiplier < 1:
        raise ValueError("multiplier must be at least 1")
    base = f"{SYNTHETIC_PREFIX}-{seed}-{index}"
    return base if multiplier == 1 else f"{base}-x{multiplier}"


def is_synthetic_app(name: str) -> bool:
    """Whether ``name`` denotes a synthetic (seed-derived) application."""
    return bool(_NAME_RE.match(name))


def parse_synthetic_app(name: str) -> Tuple[int, int]:
    """Recover ``(seed, index)`` from a synthetic application name."""
    match = _NAME_RE.match(name)
    if match is None:
        raise ValueError(f"not a synthetic application name: {name!r}")
    return int(match.group(1)), int(match.group(2))


def synthetic_block_multiplier(name: str) -> int:
    """The grid multiplier encoded in a synthetic application name (``1`` if none)."""
    match = _NAME_RE.match(name)
    if match is None:
        raise ValueError(f"not a synthetic application name: {name!r}")
    return int(match.group(3)) if match.group(3) is not None else 1


# ----------------------------------------------------------------------
# Trace synthesis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SyntheticAppParams:
    """The derived shape of one synthetic application (pre-scaling)."""

    seed: int
    index: int
    #: One spec per kernel; each carries its own ``launches_per_run``.
    kernels: Tuple[KernelSpec, ...]
    per_launch_cpu_us: Tuple[float, ...]
    setup_cpu_us: float
    teardown_cpu_us: float
    input_bytes: int
    output_bytes: int

    @property
    def name(self) -> str:
        """The application's canonical synthetic name."""
        return synthetic_app_name(self.seed, self.index)


def derive_app_params(seed: int, index: int) -> SyntheticAppParams:
    """Derive the full-scale shape of application ``(seed, index)``.

    Every quantity is a pure function of the seed and index.  Ranges are
    chosen so a single thread block always fits on an SM (the generated
    kernels are *valid*, arbitrarily-shaped programs, not garbage) while
    spanning occupancies from 1 to 16 blocks per SM, register- and
    shared-memory-limited kernels, and CPU- or transfer-heavy phase mixes.
    """
    num_kernels = _int_between(1, 3, seed, index, "num_kernels")
    kernels: List[KernelSpec] = []
    per_launch_cpu: List[float] = []
    for k in range(num_kernels):
        blocks = _int_between(16, 192, seed, index, k, "blocks")
        tb_time = 0.8 + _u(seed, index, k, "tb_time") * 23.2  # 0.8 .. 24.0 µs
        registers = _int_between(1024, 24576, seed, index, k, "regs")
        if _u(seed, index, k, "smem?") < 0.6:
            shared = 0
        else:
            shared = _int_between(1, 128, seed, index, k, "smem") * 256  # ≤ 32 KiB
        threads = _pick((64, 128, 256, 512), seed, index, k, "threads")
        kernels.append(
            KernelSpec(
                name=f"k{k}",
                benchmark=synthetic_app_name(seed, index),
                num_thread_blocks=blocks,
                avg_tb_time_us=round(tb_time, 3),
                usage=ResourceUsage(
                    registers_per_block=registers,
                    shared_memory_per_block=shared,
                    threads_per_block=threads,
                ),
                launches_per_run=_int_between(1, 4, seed, index, k, "launches"),
            )
        )
        per_launch_cpu.append(round(1.0 + _u(seed, index, k, "cpu") * 79.0, 3))

    return SyntheticAppParams(
        seed=seed,
        index=index,
        kernels=tuple(kernels),
        per_launch_cpu_us=tuple(per_launch_cpu),
        setup_cpu_us=round(20.0 + _u(seed, index, "setup_cpu") * 1980.0, 3),
        teardown_cpu_us=round(10.0 + _u(seed, index, "teardown_cpu") * 790.0, 3),
        input_bytes=_int_between(64, 4096, seed, index, "input") * KIB,
        output_bytes=_int_between(32, 2048, seed, index, "output") * KIB,
    )


def build_synthetic_trace(
    name: str, scale: Optional[WorkloadScale] = None
) -> ApplicationTrace:
    """Build the application trace of a synthetic app at the given scale.

    Scaling follows the Parboil models: thread-block counts scale with
    ``tb_scale``, launch counts with ``launch_scale``, and host-side time and
    transfer sizes with their product, so the compute/transfer balance of the
    application is preserved across scales.

    A ``-x<multiplier>`` name suffix (see :func:`synthetic_app_name`) scales
    the kernel grids and transfer sizes *up* by the multiplier after the
    workload-scale reduction: the ``large_gpu`` scenario family uses it to
    grow work proportionally with the simulated SM count while keeping every
    other derived quantity (per-block times, footprints, phase mix) fixed.
    """
    seed, index = parse_synthetic_app(name)
    multiplier = synthetic_block_multiplier(name)
    params = derive_app_params(seed, index)
    scale = scale if scale is not None else WorkloadScale.full()
    host_scale = scale.host_scale

    phases = []
    for spec, cpu_us in zip(params.kernels, params.per_launch_cpu_us):
        scaled_spec = spec.scaled(scale.tb_scale)
        if multiplier > 1:
            scaled_spec = dataclasses.replace(
                scaled_spec,
                num_thread_blocks=scaled_spec.num_thread_blocks * multiplier,
            )
        phases.append(
            KernelPhase(
                kernel=scaled_spec,
                launches=max(1, round(spec.launches_per_run * scale.launch_scale)),
                cpu_time_us=max(0.5, cpu_us * scale.tb_scale),
            )
        )
    return TraceGenerator().build(
        name,
        phases=phases,
        input_bytes=max(4 * KIB, int(params.input_bytes * host_scale) * multiplier),
        output_bytes=max(4 * KIB, int(params.output_bytes * host_scale) * multiplier),
        setup_cpu_time_us=max(1.0, params.setup_cpu_us * host_scale),
        teardown_cpu_time_us=max(1.0, params.teardown_cpu_us * host_scale),
    )


class SyntheticSuite:
    """A benchmark suite resolving synthetic *and* Parboil application names.

    ``syn-<seed>-<index>`` names are rebuilt deterministically from the name
    alone; every other name is delegated to a fallback suite (default: the
    :class:`~repro.workloads.parboil.ParboilSuite` at the same scale).  This
    is the default suite of :meth:`repro.system.GPUSystem.from_scenario` and
    :class:`~repro.workloads.multiprogram.WorkloadRunner`, so scenarios can
    freely mix synthetic and Parboil applications.
    """

    def __init__(self, scale: Optional[WorkloadScale] = None, *, fallback=None):
        self.scale = scale if scale is not None else WorkloadScale.full()
        self._fallback = fallback if fallback is not None else ParboilSuite(self.scale)
        self._trace_cache: dict[str, ApplicationTrace] = {}

    def names(self) -> Sequence[str]:
        """The fallback suite's names (the synthetic namespace is open-ended)."""
        return self._fallback.names()

    def trace(self, name: str) -> ApplicationTrace:
        """The (cached) trace of ``name`` at the suite's scale."""
        if is_synthetic_app(name):
            if name not in self._trace_cache:
                self._trace_cache[name] = build_synthetic_trace(name, self.scale)
            return self._trace_cache[name]
        return self._fallback.trace(name)


# ----------------------------------------------------------------------
# Scenario generation
# ----------------------------------------------------------------------
def generate_synthetic_scheme(seed: int) -> SchemeSpec:
    """Derive a scheme (policy × mechanism × controller × transfer) from a seed.

    The controller dimension covers the per-request preemption API: the
    legacy controller-less shape, an explicit ``static`` wrap, ``hybrid``
    with a sampled drain budget (so deadline fallbacks at every point of the
    latency range get fuzzed), and ``adaptive``.
    """
    policy = _pick(SCHEME_POLICIES, seed, "policy")
    mechanism = _pick(SCHEME_MECHANISMS, seed, "mechanism")
    transfer = _pick(SCHEME_TRANSFER_POLICIES, seed, "transfer")
    controller = _pick(SCHEME_CONTROLLERS, seed, "controller")
    controller_options = {}
    if controller == "hybrid":
        # 0.5 .. 50 µs: from "falls back almost always" to "drains almost
        # always", covering mid-drain mixes in between.
        controller_options["drain_budget_us"] = round(
            0.5 + _u(seed, "drain_budget") * 49.5, 3
        )
    if controller is None:
        name = f"{policy}_{mechanism}"
    elif controller == "static":
        # For static the mechanism fully determines behaviour: keep it in
        # the label so fuzz reports stay distinguishable.
        name = f"{policy}_static_{mechanism}"
    else:
        name = f"{policy}_{controller}"
    return SchemeSpec(
        policy=policy,
        mechanism=mechanism,
        transfer_policy=transfer,
        controller=controller,
        controller_options=controller_options,
        name=name,
    )


#: Arrival-process kinds sampled by the open-loop fuzzer dimension.
ARRIVAL_KINDS = ("poisson", "mmpp", "lognormal", "pareto")

#: Admission policies sampled by the open-loop fuzzer dimension.
ARRIVAL_ADMISSIONS = ("drop", "drop_oldest", "block")


def generate_synthetic_arrivals(seed: int, num_processes: int) -> tuple:
    """Derive an ``(arrivals, slo)`` pair for an open-loop scenario.

    Every draw is key-addressed under fresh ``ol_*`` keys, so enabling the
    open-loop dimension never disturbs the closed-loop draws of the same
    seed (existing goldens stay byte-identical).
    """
    horizon_us = round(6_000.0 + _u(seed, "ol_horizon") * 9_000.0, 3)
    tenants = []
    for i in range(num_processes):
        kind = _pick(ARRIVAL_KINDS, seed, "ol_kind", i)
        tenant = {
            "process": kind,
            "seed": _int_between(0, 9_999, seed, "ol_seed", i),
            "mean_interarrival_us": round(150.0 + _u(seed, "ol_mean", i) * 600.0, 3),
        }
        if kind == "mmpp":
            tenant["burstiness"] = round(2.0 + _u(seed, "ol_burst", i) * 10.0, 3)
        tenants.append(tenant)
    if _u(seed, "ol_slo_hp?") < 0.3:
        tenants[0]["slo_us"] = round(100.0 + _u(seed, "ol_slo_hp") * 400.0, 3)
    arrivals = {
        "horizon_us": horizon_us,
        "warmup_us": round(horizon_us * 0.125, 3),
        "window_us": round(horizon_us * 0.25, 3),
        "queue_capacity": _int_between(4, 32, seed, "ol_capacity"),
        "admission": _pick(ARRIVAL_ADMISSIONS, seed, "ol_admission"),
        "max_inflight": _int_between(1, 6, seed, "ol_inflight"),
        "tenants": tenants,
    }
    slo = {"default": round(200.0 + _u(seed, "ol_slo") * 2_000.0, 3)}
    return arrivals, slo


#: Trace sources sampled by the trace-driven fuzzer dimension.
TRACE_SOURCE_KINDS = ("azure_faas", "pareto_burst", "lognormal_diurnal")


def generate_synthetic_trace_arrivals(seed: int, num_processes: int) -> tuple:
    """Derive an ``(arrivals, slo)`` pair driven by a synthesized trace.

    The trace-driven sibling of :func:`generate_synthetic_arrivals`: a
    seed-derived :data:`repro.registry.TRACE_SOURCES` synthesizer builds a
    :class:`~repro.loadgen.trace.WorkloadTrace`, whose per-tenant gap lists
    become non-wrapping ``replay`` tenants.  Every draw is key-addressed
    under fresh ``td_*`` keys, so enabling the trace-driven dimension never
    disturbs the closed-loop, open-loop or cluster draws of the same seed
    (existing goldens stay byte-identical).
    """
    from repro.loadgen.synth import synthesize_trace  # local: avoids cycle

    horizon_us = round(6_000.0 + _u(seed, "td_horizon") * 9_000.0, 3)
    trace = synthesize_trace(
        _pick(TRACE_SOURCE_KINDS, seed, "td_source"),
        seed=_int_between(0, 9_999, seed, "td_seed"),
        horizon_us=horizon_us,
        num_tenants=num_processes,
        mean_interarrival_us=round(150.0 + _u(seed, "td_mean") * 600.0, 3),
    )
    tenants = []
    for i, tenant in enumerate(trace.tenants):
        gaps = tenant.gaps_us()
        if not gaps:
            # A tenant whose stream drew no arrivals inside the horizon:
            # one past-horizon gap keeps replay's non-empty invariant while
            # still producing zero requests.
            gaps = [round(horizon_us + 1.0, 3)]
        spec = {
            "process": "replay",
            "seed": i,
            "interarrival_us": gaps,
            "wrap": False,
        }
        if tenant.priority:
            spec["priority"] = tenant.priority
        tenants.append(spec)
    arrivals = {
        "horizon_us": horizon_us,
        "warmup_us": round(horizon_us * 0.125, 3),
        "window_us": round(horizon_us * 0.25, 3),
        "queue_capacity": _int_between(4, 32, seed, "td_capacity"),
        "admission": _pick(ARRIVAL_ADMISSIONS, seed, "td_admission"),
        "max_inflight": _int_between(1, 6, seed, "td_inflight"),
        "tenants": tenants,
    }
    slo = {"default": round(200.0 + _u(seed, "td_slo") * 2_000.0, 3)}
    return arrivals, slo


#: Routers sampled by the cluster fuzzer dimension.
CLUSTER_ROUTERS = ("round_robin", "least_loaded", "tenant_affinity", "priority_spill")


def generate_synthetic_cluster(seed: int, horizon_us: float) -> dict:
    """Derive a ``cluster=`` section for a fleet scenario.

    Like the open-loop draws, every key is fresh (``cl_*``), so enabling the
    cluster dimension never disturbs the closed- or open-loop draws of the
    same seed.
    """
    router = _pick(CLUSTER_ROUTERS, seed, "cl_router")
    router_options: dict = {}
    if router == "priority_spill":
        router_options["spill_margin"] = _int_between(2, 6, seed, "cl_margin")
    if router in ("tenant_affinity", "priority_spill"):
        router_options["seed"] = _int_between(0, 99, seed, "cl_affinity_seed")
    return {
        "num_gpus": _int_between(2, 5, seed, "cl_gpus"),
        "router": router,
        "router_options": router_options,
        "epoch_us": round(horizon_us / _int_between(4, 10, seed, "cl_epochs"), 3),
    }


def generate_synthetic_scenario(
    seed: int,
    *,
    scale: str = "smoke",
    validate: bool = False,
    trace: bool = False,
    scheme: Optional[SchemeSpec] = None,
    min_processes: int = 2,
    max_processes: int = 5,
    block_multiplier: int = 1,
    config_overrides: Optional[dict] = None,
    open_loop: bool = False,
    cluster: bool = False,
    trace_driven: bool = False,
    metrics: Optional[dict] = None,
) -> ScenarioSpec:
    """Derive one complete multiprogram scenario from an integer seed.

    The process count, per-process applications, high-priority slot, priority
    values, arrival stagger and (unless overridden) the scheduling scheme are
    all seed-derived; the same seed always yields byte-identical spec JSON.

    ``block_multiplier`` scales every application's kernel grids (through the
    ``-x<multiplier>`` name suffix) and ``config_overrides`` rides through to
    the spec verbatim — together they let the ``large_gpu`` scenario family
    reuse the fuzzer's seed-derived shapes at modern-GPU scale.

    ``open_loop`` adds a seed-derived ``arrivals=``/``slo=`` section (kind,
    rate, burstiness, admission policy, SLO budgets), turning the scenario
    into an open-loop serving run (see :mod:`repro.serving`); the draws use
    fresh hash keys, so closed-loop scenarios of the same seed are unchanged.

    ``cluster`` (implies ``open_loop``) additionally adds a seed-derived
    ``cluster=`` section (fleet size, router, epoch length), turning the
    scenario into a multi-GPU fleet run (see :mod:`repro.cluster`); its
    draws are likewise fresh-keyed.

    ``trace_driven`` (implies ``open_loop``) replaces the synthetic arrival
    processes with non-wrapping ``replay`` streams fed by a seed-derived
    workload trace (:mod:`repro.loadgen.synth`) — the fuzzer's hook into the
    trace pipeline.  Its draws use fresh ``td_*`` keys, so every other
    dimension of the same seed is unchanged.  Composes with ``cluster``.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not 1 <= min_processes <= max_processes:
        raise ValueError("need 1 <= min_processes <= max_processes")
    num_processes = _int_between(min_processes, max_processes, seed, "num_processes")
    applications = tuple(
        synthetic_app_name(seed, i, block_multiplier) for i in range(num_processes)
    )
    if num_processes >= 2 and _u(seed, "priority?") < 0.5:
        high_priority_index: Optional[int] = _int_between(
            0, num_processes - 1, seed, "hp_index"
        )
        high_priority = _int_between(1, 10, seed, "hp_value")
    else:
        high_priority_index = None
        high_priority = 10
    arrivals = slo = cluster_section = None
    if trace_driven:
        arrivals, slo = generate_synthetic_trace_arrivals(seed, num_processes)
    elif open_loop or cluster:
        arrivals, slo = generate_synthetic_arrivals(seed, num_processes)
    if cluster:
        cluster_section = generate_synthetic_cluster(seed, arrivals["horizon_us"])
    return ScenarioSpec(
        scheme=scheme if scheme is not None else generate_synthetic_scheme(seed),
        applications=applications,
        high_priority_index=high_priority_index,
        workload_id=seed,
        scale=scale,
        config_overrides=config_overrides or {},
        min_iterations=_int_between(1, 2, seed, "min_iterations"),
        start_stagger_us=round(_u(seed, "stagger") * 25.0, 3),
        high_priority=high_priority,
        validate=validate,
        trace=trace,
        arrivals=arrivals,
        slo=slo,
        cluster=cluster_section,
        metrics=metrics,
    )


def generate_synthetic_scenarios(
    count: int,
    *,
    seed: int = 2014,
    scale: str = "smoke",
    validate: bool = False,
    trace: bool = False,
    scheme: Optional[SchemeSpec] = None,
    min_processes: int = 2,
    max_processes: int = 5,
    open_loop: bool = False,
    metrics: Optional[dict] = None,
) -> List[ScenarioSpec]:
    """Derive ``count`` scenarios from consecutive sub-seeds of ``seed``.

    Sub-seed ``i`` is ``seed * 1000 + i`` so the batches for nearby base
    seeds stay disjoint; each scenario remains individually reproducible
    from its own ``workload_id``.
    """
    if count < 1:
        raise ValueError("count must be positive")
    return [
        generate_synthetic_scenario(
            seed * 1000 + i,
            scale=scale,
            validate=validate,
            trace=trace,
            scheme=scheme,
            min_processes=min_processes,
            max_processes=max_processes,
            open_loop=open_loop,
            metrics=metrics,
        )
        for i in range(count)
    ]


__all__ = [
    "SYNTHETIC_PREFIX",
    "SCHEME_POLICIES",
    "SCHEME_MECHANISMS",
    "SCHEME_CONTROLLERS",
    "SCHEME_TRANSFER_POLICIES",
    "SyntheticAppParams",
    "SyntheticSuite",
    "synthetic_app_name",
    "is_synthetic_app",
    "parse_synthetic_app",
    "synthetic_block_multiplier",
    "derive_app_params",
    "build_synthetic_trace",
    "generate_synthetic_scheme",
    "generate_synthetic_arrivals",
    "generate_synthetic_cluster",
    "generate_synthetic_scenario",
    "generate_synthetic_scenarios",
    "ARRIVAL_KINDS",
    "ARRIVAL_ADMISSIONS",
    "CLUSTER_ROUTERS",
]
