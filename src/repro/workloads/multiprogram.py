"""Multiprogrammed workload composition and execution (paper Sec. 4.1).

The paper builds multiprogrammed workloads by co-scheduling randomly chosen
Parboil applications (2, 4, 6 or 8 processes), replaying every application
until each has completed at least three full runs, and computing the
multiprogram metrics from the completed runs only.  This module provides:

* :class:`WorkloadSpec` — one workload (an ordered list of applications, with
  an optional high-priority process).
* :func:`generate_random_workloads` / :func:`generate_priority_workloads` —
  seeded random workload generation.
* :class:`IsolatedBaseline` — cached isolated execution times of every
  application (the denominator of every metric).
* :class:`WorkloadRunner` — builds a :class:`~repro.system.GPUSystem` for a
  workload under a chosen policy and preemption mechanism, runs it with the
  replay methodology, and returns the per-process timings and metrics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.gpu.config import SystemConfig
from repro.memory.transfer_engine import TransferSchedulingPolicy
from repro.metrics.multiprogram import MultiprogramMetrics
from repro.scenario import (
    DEFAULT_MAX_EVENTS,
    HIGH_PRIORITY,
    NORMAL_PRIORITY,
    ScenarioSpec,
    SchemeSpec,
    _canonicalize,
    config_to_overrides,
)
from repro.system import GPUSystem
from repro.workloads.parboil import ParboilSuite
from repro.workloads.scale import WorkloadScale


@dataclass(frozen=True)
class WorkloadSpec:
    """One multiprogrammed workload."""

    #: Application (benchmark) names, one per process, in start order.
    applications: Sequence[str]
    #: Index into ``applications`` of the high-priority process (or ``None``).
    high_priority_index: Optional[int] = None
    #: Identifier used in reports (workload number within its generation).
    workload_id: int = 0

    def __post_init__(self) -> None:
        if len(self.applications) < 1:
            raise ValueError("a workload needs at least one application")
        if self.high_priority_index is not None and not (
            0 <= self.high_priority_index < len(self.applications)
        ):
            raise ValueError("high_priority_index out of range")

    @property
    def num_processes(self) -> int:
        """Number of processes in the workload."""
        return len(self.applications)

    @property
    def high_priority_application(self) -> Optional[str]:
        """Benchmark name of the high-priority process (if any)."""
        if self.high_priority_index is None:
            return None
        return self.applications[self.high_priority_index]

    def process_names(self) -> List[str]:
        """Unique process names (``app#slot``) for the workload."""
        return [f"{app}#{slot}" for slot, app in enumerate(self.applications)]

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        parts = []
        for slot, app in enumerate(self.applications):
            marker = "*" if slot == self.high_priority_index else ""
            parts.append(f"{app}{marker}")
        return f"W{self.workload_id}[{', '.join(parts)}]"


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
def generate_random_workloads(
    num_processes: int,
    count: int,
    *,
    seed: int = 2014,
    benchmarks: Optional[Sequence[str]] = None,
) -> List[WorkloadSpec]:
    """Generate ``count`` random workloads of ``num_processes`` processes.

    Applications are drawn without replacement while the benchmark pool
    lasts (at most 10 distinct applications), then with replacement, which
    mirrors "co-scheduling several benchmark applications chosen randomly".
    """
    if num_processes < 1:
        raise ValueError("num_processes must be positive")
    if count < 1:
        raise ValueError("count must be positive")
    pool = list(benchmarks) if benchmarks is not None else list(ParboilSuite().names())
    rng = random.Random(seed * 1_000_003 + num_processes)
    workloads = []
    for workload_id in range(count):
        apps = _draw_applications(rng, pool, num_processes)
        workloads.append(WorkloadSpec(applications=tuple(apps), workload_id=workload_id))
    return workloads


def generate_priority_workloads(
    num_processes: int,
    *,
    workloads_per_benchmark: int = 1,
    seed: int = 2014,
    benchmarks: Optional[Sequence[str]] = None,
) -> List[WorkloadSpec]:
    """Generate priority workloads for the Figure 5/6 experiments.

    Every benchmark appears as the high-priority process the same number of
    times (``workloads_per_benchmark``); the remaining processes are drawn
    randomly from the full pool.
    """
    if num_processes < 2:
        raise ValueError("priority workloads need at least two processes")
    pool = list(benchmarks) if benchmarks is not None else list(ParboilSuite().names())
    rng = random.Random(seed * 7_000_003 + num_processes)
    workloads = []
    workload_id = 0
    for high_priority_app in pool:
        for _ in range(workloads_per_benchmark):
            others_pool = [name for name in pool if name != high_priority_app] or pool
            others = _draw_applications(rng, others_pool, num_processes - 1)
            apps = [high_priority_app, *others]
            workloads.append(
                WorkloadSpec(
                    applications=tuple(apps),
                    high_priority_index=0,
                    workload_id=workload_id,
                )
            )
            workload_id += 1
    return workloads


def _draw_applications(rng: random.Random, pool: Sequence[str], count: int) -> List[str]:
    """Draw ``count`` applications, without replacement while possible."""
    chosen: List[str] = []
    remaining = list(pool)
    rng.shuffle(remaining)
    while len(chosen) < count:
        if not remaining:
            remaining = list(pool)
            rng.shuffle(remaining)
        chosen.append(remaining.pop())
    return chosen


# ----------------------------------------------------------------------
# Isolated baselines
# ----------------------------------------------------------------------
class IsolatedBaseline:
    """Cached isolated execution times of every application."""

    def __init__(
        self,
        suite: ParboilSuite,
        *,
        config: Optional[SystemConfig] = None,
        iterations: int = 1,
    ):
        self._suite = suite
        self._config = config if config is not None else SystemConfig()
        self._iterations = iterations
        self._cache: Dict[str, float] = {}

    def time_us(self, application: str) -> float:
        """Isolated mean iteration time of ``application`` (cached)."""
        if application not in self._cache:
            system = GPUSystem(self._config, policy="fcfs", mechanism="context_switch")
            trace = self._suite.trace(application)
            process = system.add_process(application, trace, max_iterations=self._iterations)
            system.run(max_events=DEFAULT_MAX_EVENTS)
            self._cache[application] = process.mean_iteration_time_us()
        return self._cache[application]

    def all_times_us(self) -> Dict[str, float]:
        """Isolated times of every benchmark in the suite."""
        return {name: self.time_us(name) for name in self._suite.names()}


# ----------------------------------------------------------------------
# Workload execution
# ----------------------------------------------------------------------
@dataclass
class WorkloadResult:
    """Outcome of running one workload under one policy/mechanism."""

    spec: WorkloadSpec
    policy: str
    mechanism: str
    #: Mean completed-iteration time per process name (``app#slot``).
    process_times_us: Dict[str, float]
    #: Application name per process name.
    process_applications: Dict[str, str]
    metrics: MultiprogramMetrics
    #: Execution-engine statistics snapshot (preemption counts, etc.).
    engine_stats: Dict[str, float] = field(default_factory=dict)
    simulated_time_us: float = 0.0
    events_processed: int = 0
    #: Whether the runtime invariant-validation layer observed the run.
    validated: bool = False
    #: Invariant violations detected during the run (see
    #: :mod:`repro.validation`); always empty for a correct simulator.
    violations: List[Dict] = field(default_factory=list)
    #: Telemetry summary of the run (see
    #: :func:`repro.telemetry.analytics.summarize`): event counts,
    #: per-mechanism preemption-latency samples and stats, queueing stats and
    #: exported artifact paths.  ``None`` unless the scenario enabled tracing.
    trace_summary: Optional[Dict] = None
    #: Open-loop serving summary (admission counters, streaming latency
    #: quantiles, SLO violations; see :meth:`repro.serving.ServingDriver.summary`).
    #: ``None`` for classic closed-loop scenarios.
    serving_summary: Optional[Dict] = None

    @property
    def high_priority_process(self) -> Optional[str]:
        """Process name of the workload's high-priority process."""
        if self.spec.high_priority_index is None:
            return None
        return self.spec.process_names()[self.spec.high_priority_index]

    def high_priority_ntt(self) -> float:
        """NTT of the high-priority process (Figure 5)."""
        process = self.high_priority_process
        if process is None:
            raise ValueError("this workload has no high-priority process")
        return self.metrics.ntt_of(process)


class WorkloadRunner:
    """Runs multiprogrammed workloads under a chosen policy and mechanism."""

    def __init__(
        self,
        suite=None,
        *,
        scale: Optional[WorkloadScale] = None,
        config: Optional[SystemConfig] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        from repro.workloads.synthetic import SyntheticSuite  # local: avoids cycle

        self.scale = scale if scale is not None else WorkloadScale.reduced()
        #: Benchmark suite; the default resolves Parboil names and synthetic
        #: ``syn-*`` applications alike (see :mod:`repro.workloads.synthetic`).
        self.suite = suite if suite is not None else SyntheticSuite(self.scale)
        #: Unscaled configuration, kept for scenario serialisation.
        self._base_config = config if config is not None else SystemConfig()
        #: Fixed host/PCIe latencies are scaled together with the workload so
        #: the compute/transfer balance matches the full-scale system.
        self.config = self.scale.scale_config(self._base_config)
        self.baseline = IsolatedBaseline(self.suite, config=self.config)
        self._max_events = max_events

    # ------------------------------------------------------------------
    # Running one workload
    # ------------------------------------------------------------------
    def scenario_for(
        self,
        spec: WorkloadSpec,
        *,
        policy: str,
        mechanism: str = "context_switch",
        transfer_policy: Optional[TransferSchedulingPolicy] = None,
        policy_options: Optional[Dict] = None,
        min_iterations: Optional[int] = None,
    ) -> ScenarioSpec:
        """Build the declarative :class:`ScenarioSpec` for one run.

        ``transfer_policy`` defaults to NPQ for priority workloads (as in the
        paper's Sec. 4.2/4.3 experiments) and FCFS otherwise (Sec. 4.4).
        """
        if transfer_policy is None:
            transfer_policy = (
                TransferSchedulingPolicy.PRIORITY
                if spec.high_priority_index is not None
                else TransferSchedulingPolicy.FCFS
            )
        scheme = SchemeSpec(
            policy=policy,
            mechanism=mechanism,
            transfer_policy=transfer_policy.value
            if isinstance(transfer_policy, TransferSchedulingPolicy)
            else transfer_policy,
            policy_options=policy_options or {},
        )
        return ScenarioSpec.for_workload(
            spec,
            scheme,
            scale=self.scale.name,
            config_overrides=config_to_overrides(self._base_config),
            min_iterations=min_iterations,
        )

    def run(
        self,
        spec: WorkloadSpec,
        *,
        policy: str,
        mechanism: str = "context_switch",
        transfer_policy: Optional[TransferSchedulingPolicy] = None,
        policy_options: Optional[Dict] = None,
        min_iterations: Optional[int] = None,
    ) -> WorkloadResult:
        """Simulate ``spec`` under ``policy``/``mechanism`` and collect metrics."""
        return self.run_scenario(
            self.scenario_for(
                spec,
                policy=policy,
                mechanism=mechanism,
                transfer_policy=transfer_policy,
                policy_options=policy_options,
                min_iterations=min_iterations,
            )
        )

    def run_scenario(
        self,
        scenario: ScenarioSpec,
        *,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
    ) -> WorkloadResult:
        """Simulate one declarative scenario and collect metrics.

        The system is built by :meth:`GPUSystem.from_scenario` with this
        runner's (already scaled) configuration and benchmark suite, so
        results are identical whether a scenario is run here, serially, or in
        a :class:`repro.runner.BatchRunner` worker process.  A scenario whose
        scale or configuration overrides do not match this runner is rejected
        — running it here would silently produce results attributed to a
        configuration that was never simulated (use
        :func:`repro.runner.execute_scenario`, which picks the right runner).

        For a traced scenario (``scenario.trace``), ``trace_path`` names a
        Chrome trace-event JSON file to export; the raw events stay in this
        process and only the summary (plus the artifact path) travels back in
        the :class:`WorkloadResult`.  Likewise, for an observed scenario
        (``scenario.metrics``), ``metrics_path`` names a metrics JSONL time
        series to export — snapshot rows never ride the result object, so
        observability cannot perturb result bytes.
        """
        if scenario.scale != self.scale.name:
            raise ValueError(
                f"scenario scale {scenario.scale!r} does not match this runner's "
                f"scale {self.scale.name!r}"
            )
        own_overrides = _canonicalize(config_to_overrides(self._base_config))
        if dict(scenario.config_overrides) != own_overrides:
            raise ValueError(
                "scenario config_overrides do not match this runner's configuration"
            )
        if scenario.arrivals is not None:
            return self._run_open_loop_scenario(
                scenario, trace_path=trace_path, metrics_path=metrics_path
            )
        system = GPUSystem.from_scenario(scenario, config=self.config, suite=self.suite)
        iterations = (
            scenario.min_iterations
            if scenario.min_iterations is not None
            else self.scale.min_iterations
        )
        max_events = (
            scenario.max_events if scenario.max_events is not None else self._max_events
        )
        system.run(stop_after_min_iterations=iterations, max_events=max_events)

        spec = WorkloadSpec(
            applications=scenario.applications,
            high_priority_index=scenario.high_priority_index,
            workload_id=scenario.workload_id,
        )
        process_names = spec.process_names()
        process_times = system.mean_iteration_times_us()
        process_applications = dict(zip(process_names, spec.applications))
        isolated = {
            name: self.baseline.time_us(app) for name, app in process_applications.items()
        }
        metrics = MultiprogramMetrics.compute(process_times, isolated)
        if metrics_path is not None and system.metrics is not None:
            from repro.obs import write_jsonl  # local: keeps import cheap

            write_jsonl(system.metrics.rows, metrics_path, meta=system.metrics.meta)
        trace_summary = None
        if system.telemetry is not None:
            from repro.telemetry.analytics import summarize  # local: keeps import cheap
            from repro.telemetry.export import write_chrome_trace

            artifacts = []
            if trace_path is not None:
                write_chrome_trace(
                    system.telemetry.events, trace_path, end_us=system.simulator.now
                )
                artifacts.append(trace_path)
            trace_summary = summarize(
                system.telemetry.events,
                now_us=system.simulator.now,
                artifacts=artifacts,
            )
        return WorkloadResult(
            spec=spec,
            policy=scenario.scheme.policy,
            mechanism=scenario.scheme.mechanism,
            process_times_us=process_times,
            process_applications=process_applications,
            metrics=metrics,
            engine_stats=system.execution_engine.utilization_snapshot(),
            simulated_time_us=system.simulator.now,
            events_processed=system.simulator.events_processed,
            validated=system.validation is not None,
            violations=system.violations(),
            trace_summary=trace_summary,
        )

    def _run_open_loop_scenario(
        self,
        scenario: ScenarioSpec,
        *,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
    ) -> WorkloadResult:
        """Run an open-loop (``arrivals=``) scenario: serving, or a fleet.

        Closed-loop iteration metrics (NTT/ANTT/STP) do not apply to an
        open-loop run — request-latency quantiles, windowed throughput/ANTT
        and SLO counters live in :attr:`WorkloadResult.serving_summary`.  A
        ``cluster=`` scenario runs through the fleet layer, serially here —
        the fleet experiment shards epochs over a
        :class:`~repro.runner.BatchRunner` pool directly via
        :func:`repro.cluster.run_fleet` — and reports no engine statistics,
        since its member systems live in the epoch workers.
        """
        if scenario.cluster is not None:
            from repro.cluster import run_fleet  # local: avoids cycle

            outcome = run_fleet(scenario, suite=self.suite)
            engine_stats = {}
        else:
            from repro.serving import run_serving  # local: avoids cycle

            outcome = run_serving(scenario, config=self.config, suite=self.suite)
            engine_stats = outcome.engine_stats
        if metrics_path is not None and outcome.metrics_rows is not None:
            from repro.obs import write_jsonl  # local: keeps import cheap

            write_jsonl(outcome.metrics_rows, metrics_path, meta=outcome.metrics_meta)
        spec = WorkloadSpec(
            applications=scenario.applications,
            high_priority_index=scenario.high_priority_index,
            workload_id=scenario.workload_id,
        )
        process_applications = dict(zip(spec.process_names(), spec.applications))
        trace_summary = None
        if scenario.trace:
            from repro.telemetry.analytics import summarize  # local: keeps import cheap
            from repro.telemetry.export import write_chrome_trace

            artifacts = []
            if trace_path is not None:
                write_chrome_trace(
                    outcome.trace_events, trace_path, end_us=outcome.simulated_time_us
                )
                artifacts.append(trace_path)
            trace_summary = summarize(
                outcome.trace_events,
                now_us=outcome.simulated_time_us,
                artifacts=artifacts,
            )
        return WorkloadResult(
            spec=spec,
            policy=scenario.scheme.policy,
            mechanism=scenario.scheme.mechanism,
            process_times_us={},
            process_applications=process_applications,
            metrics=MultiprogramMetrics(ntt={}, antt=0.0, stp=0.0, fairness=0.0),
            engine_stats=engine_stats,
            simulated_time_us=outcome.simulated_time_us,
            events_processed=outcome.events_processed,
            validated=outcome.validated,
            violations=outcome.violations,
            trace_summary=trace_summary,
            serving_summary=outcome.summary,
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run_many(
        self,
        specs: Sequence[WorkloadSpec],
        *,
        policy: str,
        mechanism: str = "context_switch",
        **kwargs,
    ) -> List[WorkloadResult]:
        """Run a list of workloads under the same policy and mechanism."""
        return [
            self.run(spec, policy=policy, mechanism=mechanism, **kwargs) for spec in specs
        ]
