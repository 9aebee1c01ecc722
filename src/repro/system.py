"""The top-level simulated system: host + PCIe + GPU.

:class:`GPUSystem` wires every substrate together — the discrete-event
simulator, the host CPU and device driver, the PCIe bus and data-transfer
engine, and the GPU execution engine with a chosen scheduling policy and
preemption mechanism — and provides the entry points the examples, tests and
experiment harness use:

>>> from repro import GPUSystem
>>> from repro.trace import TraceGenerator
>>> system = GPUSystem(policy="fcfs", mechanism="context_switch")
>>> trace = TraceGenerator().uniform_kernel("demo", num_blocks=64, tb_time_us=5.0)
>>> process = system.add_process("demo", trace, max_iterations=1)
>>> system.run()
>>> round(process.mean_iteration_time_us(), 1) > 0
True
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Union

from repro.core.policies import SchedulingPolicy, make_policy
from repro.core.preemption import PreemptionController, PreemptionMechanism, make_mechanism
from repro.gpu.config import SystemConfig
from repro.registry import CONTROLLERS, POLICIES, TRANSFER_POLICIES
from repro.scenario import ScenarioSpec
from repro.gpu.context import ContextTable
from repro.gpu.dispatcher import CommandDispatcher
from repro.gpu.execution_engine import ExecutionEngine
from repro.host.cpu import HostCPU
from repro.host.driver import DeviceDriver
from repro.host.process import HostProcess, IterationRecord
from repro.memory.allocator import GPUMemoryAllocator
from repro.memory.dram import DRAMModel
from repro.memory.pcie import PCIeBus
from repro.memory.transfer_engine import DataTransferEngine, TransferSchedulingPolicy
from repro.sim.engine import Simulator
from repro.sim.observers import (
    CPUHooks, DispatcherHooks, ExecutionEngineHooks, ServingHooks, SimulatorHooks, SMHooks,
    section_observers,
)
from repro.trace.schema import ApplicationTrace


class GPUSystem:
    """A complete simulated CPU+GPU system."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        *,
        policy: Union[str, SchedulingPolicy] = "fcfs",
        mechanism: Union[str, PreemptionMechanism] = "context_switch",
        controller: Union[str, PreemptionController, None] = None,
        controller_options: Optional[Dict] = None,
        transfer_policy: Union[str, TransferSchedulingPolicy] = TransferSchedulingPolicy.FCFS,
        policy_options: Optional[Dict] = None,
        validate: bool = False,
        trace: bool = False,
        metrics=None,
        start_time_us: float = 0.0,
        launch_base: int = 0,
    ):
        # ``start_time_us`` and ``launch_base`` let a resumed segment continue
        # the clock and the launch-id sequence of the segment before it.
        if not (math.isfinite(start_time_us) and start_time_us >= 0):
            raise ValueError(f"start_time_us must be finite and >= 0: {start_time_us!r}")
        if type(launch_base) is not int or launch_base < 0:
            raise ValueError(f"launch_base must be an int >= 0: {launch_base!r}")
        self.config = config if config is not None else SystemConfig()
        self.simulator = Simulator(start_time=start_time_us)

        if isinstance(policy, str):
            policy = make_policy(policy, **(policy_options or {}))
        elif policy_options:
            raise ValueError("policy_options are only valid with a policy name")
        if isinstance(mechanism, str):
            mechanism = make_mechanism(mechanism)
        if isinstance(controller, str):
            controller = CONTROLLERS.create(controller, **(controller_options or {}))
        elif controller_options:
            raise ValueError("controller_options are only valid with a controller name")
        if isinstance(transfer_policy, str):
            transfer_policy = TRANSFER_POLICIES.create(transfer_policy)

        self.context_table = ContextTable()
        self.dram = DRAMModel(self.config.gpu)
        self.allocator = GPUMemoryAllocator(self.dram)
        self.pcie = PCIeBus(self.config.pcie, self.simulator)
        self.transfer_engine = DataTransferEngine(
            self.simulator, self.pcie, policy=transfer_policy
        )
        self.execution_engine = ExecutionEngine(
            self.simulator,
            self.config,
            policy=policy,
            mechanism=mechanism,
            controller=controller,
            context_table=self.context_table,
        )
        self.dispatcher = CommandDispatcher(
            self.simulator,
            num_queues=self.config.gpu.num_hw_queues,
            execution_sink=self.execution_engine,
            transfer_sink=self.transfer_engine,
        )
        self.cpu = HostCPU(self.config.cpu, self.simulator)
        self.driver = DeviceDriver(
            self.simulator,
            self.config,
            context_table=self.context_table,
            allocator=self.allocator,
            dispatcher=self.dispatcher,
            launch_base=launch_base,
        )
        self.processes: List[HostProcess] = []
        self._process_index: Dict[str, HostProcess] = {}
        #: Open-loop request launcher, when one is attached (a
        #: :class:`repro.serving.driver.RequestLauncher`, which the serving
        #: driver and the fleet's epoch worker both use); its ``observer``
        #: slot is wired like any component's.
        self.serving = None
        #: Minimum completed iterations per process before :meth:`run` with
        #: ``stop_after_min_iterations`` halts the simulation.
        self._min_iterations: Optional[int] = None
        #: Set once that stop has fired: the run is over, and a later
        #: :meth:`run` must not drain the stopped processes' kernels.
        self._min_iterations_reached = False
        #: Observers installed on the component hooks (see
        #: :meth:`install_observer`); each component keeps a single
        #: ``observer`` attribute holding the observers of its own hooks.
        self._component_observers: List[object] = []
        #: False while the instruments below install: they are wired once.
        self._wired = False
        #: Runtime invariant-validation hub (``None`` unless ``validate=True``).
        self.validation = None
        if validate:
            from repro.validation import make_hub  # local: keeps import cheap

            self.validation = make_hub()
            self.validation.attach(self)
        #: Telemetry trace collector (``None`` unless ``trace`` enabled it or
        #: a :class:`~repro.telemetry.TraceCollector` was attached manually).
        self.telemetry = None
        if trace:
            from repro.telemetry import TraceCollector  # local: keeps import cheap

            collector = trace if isinstance(trace, TraceCollector) else TraceCollector()
            collector.attach(self)
        #: Metrics hub (``None`` unless metrics are enabled).  ``metrics``
        #: accepts ``True`` / a ``ScenarioSpec.metrics``-style mapping; the
        #: hub observes only the simulator's hook, so enabling it keeps the
        #: SM wave-batching and ``BlockRun`` fast paths.
        self.metrics = None
        # `{}` means on-with-defaults (the canonical form of `metrics=True`),
        # so gate on None rather than truthiness.
        if metrics is not None and metrics is not False:
            from repro.obs import (  # local: keeps import cheap
                MetricsHub,
                attach_engine_metrics,
                attach_gpu_metrics,
            )

            hub = MetricsHub.from_spec(
                None if metrics is True else metrics, start_us=start_time_us
            )
            hub.meta.update(
                {
                    "policy": self.policy.name,
                    "mechanism": self.mechanism.name,
                    "controller": self.controller.name,
                }
            )
            attach_engine_metrics(hub, self.simulator)
            attach_gpu_metrics(hub, self)
            wave_hist = hub.registry.histogram(
                "engine.wave_size", hub.histogram_growth
            )
            for sm in self.execution_engine.sms():
                sm.metrics_wave_hist = wave_hist
            self.install_observer(hub)
            self.metrics = hub
        self._wired = True
        if self._component_observers:
            self._rewire_observers()

    # ------------------------------------------------------------------
    # Instrumentation observers
    # ------------------------------------------------------------------
    def install_observer(self, *observers) -> None:
        """Attach ``observers`` to the instrumented components of the system.

        Observers (see :mod:`repro.sim.observers`) must only observe, so any
        number of them can be installed without perturbing the simulation.
        Each component hears only the observers of its own hooks, so only an
        observer of SM hooks rebuilds resident ``BlockRun`` spans as blocks.
        """
        installed = list(self._component_observers)
        for observer in observers:
            if any(existing is observer for existing in installed):
                raise ValueError("observer is already installed")
            installed.append(observer)
        self._component_observers = installed
        self._rewire_observers()

    def uninstall_observer(self, *observers) -> None:
        """Detach previously installed observers (idempotent)."""
        self._component_observers = [
            existing for existing in self._component_observers
            if all(existing is not observer for observer in observers)
        ]
        self._rewire_observers()

    def _rewire_observers(self) -> None:
        if not self._wired:
            return
        slots = section_observers(self._component_observers)
        self.simulator.observer = slots[SimulatorHooks]
        self.execution_engine.observer = slots[ExecutionEngineHooks]
        sm_observer = slots[SMHooks]
        for sm in self.execution_engine.sms():
            sm.observer = sm_observer
            if sm_observer is not None:
                sm.resident()  # observers see blocks: rebuild resident spans
        self.dispatcher.observer = slots[DispatcherHooks]
        self.cpu.observer = slots[CPUHooks]
        if self.serving is not None:
            self.serving.observer = slots[ServingHooks]

    # ------------------------------------------------------------------
    # Declarative construction
    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(
        cls,
        scenario: ScenarioSpec,
        *,
        config: Optional[SystemConfig] = None,
        suite=None,
        start_time_us: float = 0.0,
        launch_base: int = 0,
    ) -> "GPUSystem":
        """Build a system from a :class:`ScenarioSpec`.

        This is the one constructor of the declarative API, shared by closed
        loops, serving segments and fleet epochs: the scenario's scheme is
        resolved through the component registries, the workload scale preset
        supplies the scaled hardware configuration, and a closed-loop scenario
        gets one process per application with the scenario's priorities and
        start stagger.  Open-loop (``arrivals=``) drivers add tenant contexts.

        Parameters
        ----------
        config:
            Pre-scaled :class:`SystemConfig` to use instead of the scenario's
            (``scale.scale_config(scenario.system_config())``).
        suite:
            Benchmark suite supplying the closed-loop application traces
            (default: a :class:`~repro.workloads.synthetic.SyntheticSuite` at
            the scenario's scale, which resolves both Parboil names and
            seed-derived ``syn-*`` applications).
        start_time_us, launch_base:
            A resumed segment's clock and the number of launches before it;
            launch ids (which key per-launch jitter) start at ``launch_base + 1``.
        """
        from repro.workloads.synthetic import SyntheticSuite  # local: avoids cycle

        scale = scenario.workload_scale()
        if config is None:
            config = scale.scale_config(scenario.system_config())
        if suite is None:
            suite = SyntheticSuite(scale)

        scheme = scenario.scheme
        options = dict(scheme.policy_options)
        if POLICIES.canonical_name(scheme.policy) == "dss":
            # Equal sharing needs the process count for its token budgets.
            options.setdefault("process_count", scenario.num_processes)

        system = cls(
            config,
            policy=scheme.policy,
            mechanism=scheme.mechanism,
            controller=scheme.controller,
            controller_options=dict(scheme.controller_options) or None,
            transfer_policy=scheme.transfer_policy,
            policy_options=options or None,
            validate=scenario.validate,
            trace=scenario.trace,
            metrics=scenario.metrics,
            start_time_us=start_time_us,
            launch_base=launch_base,
        )
        if scenario.arrivals is not None:
            return system
        for slot, (app, process_name) in enumerate(
            zip(scenario.applications, scenario.process_names())
        ):
            priority = (
                scenario.high_priority
                if slot == scenario.high_priority_index
                else scenario.normal_priority
            )
            system.add_process(
                process_name,
                suite.trace(app),
                priority=priority,
                start_delay_us=scenario.start_stagger_us * slot,
            )
        return system

    # ------------------------------------------------------------------
    # Workload construction
    # ------------------------------------------------------------------
    @property
    def policy(self) -> SchedulingPolicy:
        """The execution-engine scheduling policy."""
        return self.execution_engine.policy

    @property
    def mechanism(self) -> PreemptionMechanism:
        """The default/fallback preemption mechanism.

        With the (default) ``static`` controller this is *the* mechanism;
        dynamic controllers may route individual preemptions to other bound
        instances (see :meth:`ExecutionEngine.mechanisms`).
        """
        return self.execution_engine.mechanism

    @property
    def controller(self) -> PreemptionController:
        """The preemption controller consulted per preemption request."""
        return self.execution_engine.controller

    def add_process(
        self,
        name: str,
        trace: ApplicationTrace,
        *,
        priority: int = 0,
        tokens: int = 0,
        start_delay_us: float = 0.0,
        max_iterations: Optional[int] = None,
    ) -> HostProcess:
        """Add (but do not yet start) a host process replaying ``trace``."""
        if name in self._process_index:
            raise ValueError(f"a process named {name!r} already exists")
        process = HostProcess(
            name,
            trace,
            simulator=self.simulator,
            driver=self.driver,
            cpu=self.cpu,
            priority=priority,
            tokens=tokens,
            start_delay_us=start_delay_us,
            max_iterations=max_iterations,
            on_iteration_complete=self._on_iteration_complete,
        )
        self.processes.append(process)
        self._process_index[name] = process
        return process

    def process(self, name: str) -> HostProcess:
        """Look up a process by name (O(1))."""
        try:
            return self._process_index[name]
        except KeyError:
            raise KeyError(f"no process named {name!r}") from None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        until_us: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_after_min_iterations: Optional[int] = None,
    ) -> None:
        """Start every process and run the simulation.

        Parameters
        ----------
        until_us:
            Optional simulated-time bound.
        max_events:
            Optional bound on processed events (livelock guard in tests).
        stop_after_min_iterations:
            Stop the simulation as soon as *every* process has completed at
            least this many iterations (the paper's replay methodology).
            Once that stop has fired the run is over: a later call fires no
            event and leaves every result as it was.
        """
        if self._min_iterations_reached:
            return
        self._min_iterations = stop_after_min_iterations
        for process in self.processes:
            if not process._started:  # noqa: SLF001 - intentional internal check
                process.start()
        self.simulator.run(until=until_us, max_events=max_events)
        if self.validation is not None:
            self.validation.finalize()
        # Serving runs manage their own finalize (a checkpointed segment
        # must not cut an extra row at the quiesce instant — split and
        # unsplit runs would otherwise disagree on the snapshot series).
        if self.metrics is not None and self.serving is None:
            self.metrics.finalize(self.simulator.now)

    def _on_iteration_complete(self, process: HostProcess, record: IterationRecord) -> None:
        if self._min_iterations is None:
            return
        if all(p.completed_iterations >= self._min_iterations for p in self.processes):
            for p in self.processes:
                p.stop()
            self._min_iterations_reached = True
            self.simulator.stop()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def violations(self) -> List[Dict]:
        """Recorded invariant violations (empty list when validation is off)."""
        return self.validation.to_dicts() if self.validation is not None else []

    def trace_summary(self) -> Optional[Dict]:
        """Telemetry summary of the run (``None`` when tracing is off)."""
        return self.telemetry.summary() if self.telemetry is not None else None

    def metrics_snapshot(self) -> Optional[Dict]:
        """Latest metric values (``None`` when metrics are off).

        Kept out of :class:`repro.runner.RunRecord` result payloads on
        purpose: run artifacts must stay byte-identical with metrics on or
        off (snapshot series are exported as separate JSONL artifacts).
        """
        return self.metrics.registry.snapshot() if self.metrics is not None else None

    def iteration_times_us(self) -> Dict[str, List[float]]:
        """Completed-iteration durations per process."""
        return {
            process.name: [record.duration_us for record in process.iterations]
            for process in self.processes
        }

    def mean_iteration_times_us(self) -> Dict[str, float]:
        """Mean completed-iteration duration per process."""
        return {
            process.name: process.mean_iteration_time_us()
            for process in self.processes
            if process.iterations
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GPUSystem(policy={self.policy.name}, mechanism={self.mechanism.name}, "
            f"processes={len(self.processes)})"
        )


def run_isolated(
    trace: ApplicationTrace,
    *,
    config: Optional[SystemConfig] = None,
    mechanism: Union[str, PreemptionMechanism] = "context_switch",
    iterations: int = 1,
) -> float:
    """Run one application alone on the GPU and return its mean iteration time.

    Isolated execution times are the baseline of every multiprogram metric
    (NTT, ANTT, STP, fairness).
    """
    system = GPUSystem(config, policy="fcfs", mechanism=mechanism)
    process = system.add_process(trace.name, trace, max_iterations=iterations)
    system.run()
    return process.mean_iteration_time_us()
