"""Tests for the per-request preemption-controller API."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.preemption import (
    AdaptiveController,
    HybridController,
    PreemptionRequest,
    ResidentBlockInfo,
    StaticController,
    make_controller,
)
from repro.core.preemption.controller import DEFAULT_DRAIN_BUDGET_US
from repro.gpu.config import SchedulerConfig, SystemConfig
from repro.registry import CONTROLLERS, UnknownComponentError
from repro.system import GPUSystem
from repro.trace.generator import TraceGenerator


def make_request(
    *,
    estimated_drain_us: float = 0.0,
    save_bytes: int = 0,
    save_time_us: float = 0.0,
    restore_time_us: float = 0.0,
    pipeline_drain_us: float = 0.5,
    latency_budget_us=None,
    resident=(),
) -> PreemptionRequest:
    return PreemptionRequest(
        sm_id=0,
        now=0.0,
        resident=tuple(resident),
        incoming_ksr_index=1,
        incoming_priority=10,
        resident_priority=0,
        estimated_drain_us=estimated_drain_us,
        save_bytes=save_bytes,
        save_time_us=save_time_us,
        restore_time_us=restore_time_us,
        pipeline_drain_us=pipeline_drain_us,
        latency_budget_us=latency_budget_us,
        config=SystemConfig(),
    )


def build_system(mechanism="context_switch", *, low_blocks=5000, low_tb_time=100.0,
                 **system_kwargs) -> GPUSystem:
    """One long low-priority kernel plus one short high-priority kernel."""
    generator = TraceGenerator()
    system = GPUSystem(policy="ppq", mechanism=mechanism, **system_kwargs)
    low = generator.uniform_kernel(
        "low", num_blocks=low_blocks, tb_time_us=low_tb_time,
        registers_per_block=8192, cpu_time_us=1.0,
    )
    high = generator.uniform_kernel(
        "high", num_blocks=52, tb_time_us=5.0,
        registers_per_block=8192, cpu_time_us=1.0,
    )
    system.add_process("low", low, priority=0, max_iterations=1)
    system.add_process("high", high, priority=10, start_delay_us=2000.0, max_iterations=1)
    return system


def run_fingerprint(system: GPUSystem):
    system.run(max_events=5_000_000)
    return (
        system.iteration_times_us(),
        system.simulator.now,
        system.simulator.events_processed,
    )


class TestRegistry:
    def test_make_controller_names_and_aliases(self):
        assert isinstance(make_controller("static"), StaticController)
        assert isinstance(make_controller("fixed"), StaticController)
        assert isinstance(make_controller("hybrid"), HybridController)
        assert isinstance(make_controller("deadline"), HybridController)
        assert isinstance(make_controller("adaptive"), AdaptiveController)
        assert isinstance(make_controller("cost-model"), AdaptiveController)

    def test_unknown_controller_rejected_with_suggestions(self):
        with pytest.raises(UnknownComponentError, match="did you mean"):
            CONTROLLERS.entry("adaptve")

    def test_controller_options_forwarded(self):
        controller = make_controller("hybrid", drain_budget_us=3.5)
        assert controller.drain_budget_us == 3.5
        controller = make_controller("static", mechanism="draining")
        assert controller.mechanism == "draining"


class TestStaticController:
    def test_always_returns_configured_mechanism(self):
        controller = StaticController(mechanism="draining")
        for drain in (0.0, 1.0, 1e9):
            assert controller.select(make_request(estimated_drain_us=drain)) == "draining"

    def test_unconfigured_static_adopts_the_engine_default_mechanism(self):
        # SchemeSpec(mechanism="draining", controller="static") must preempt
        # by draining: binding resolves the default from the engine.
        system = GPUSystem(policy="ppq", mechanism="draining", controller="static")
        assert system.controller.mechanism == "draining"
        assert system.controller.select(None) == "draining"
        # Unbound and unconfigured: selection has no answer.
        with pytest.raises(RuntimeError, match="no mechanism"):
            StaticController().select(None)

    def test_adopted_static_controller_refuses_a_second_engine(self):
        controller = StaticController()
        GPUSystem(policy="ppq", mechanism="draining", controller=controller)
        assert controller.mechanism == "draining"
        with pytest.raises(RuntimeError, match="cannot be reused"):
            GPUSystem(policy="ppq", mechanism="context_switch", controller=controller)
        # An explicitly configured controller may be shared: its selection
        # does not depend on which engine it is bound to.
        shared = StaticController(mechanism="draining")
        GPUSystem(policy="ppq", controller=shared)
        GPUSystem(policy="ppq", controller=shared)
        assert shared.mechanism == "draining"

    def test_static_skips_the_request_snapshot(self):
        assert StaticController.needs_request is False
        assert HybridController.needs_request is True
        assert AdaptiveController.needs_request is True

    def test_decide_records_selection_stats(self):
        controller = StaticController(mechanism="context_switch")
        controller.decide(None)
        controller.decide(None)
        assert controller.stats.counter("selected.context_switch").value == 2

    def test_decide_canonicalises_alias_selections(self):
        # "cs" and "context_switch" must land in one counter, not two.
        controller = StaticController(mechanism="cs")
        controller.decide(None)
        controller.decide(None)
        assert controller.stats.counter("selected.context_switch").value == 2
        assert "selected.cs" not in dict(controller.stats.snapshot())


class TestHybridController:
    def test_drains_within_budget_falls_back_beyond_it(self):
        controller = HybridController(drain_budget_us=10.0)
        assert controller.select(make_request(estimated_drain_us=9.9)) == "draining"
        assert controller.select(make_request(estimated_drain_us=10.0)) == "draining"
        assert controller.select(make_request(estimated_drain_us=10.1)) == "context_switch"

    def test_budget_resolution_order(self):
        request = make_request(estimated_drain_us=5.0, latency_budget_us=2.0)
        # Explicit option wins over the request budget.
        assert HybridController(drain_budget_us=30.0).budget_for(request) == 30.0
        # Request (SchedulerConfig) budget wins over the library default.
        assert HybridController().budget_for(request) == 2.0
        # Library default when nothing else is set.
        assert (
            HybridController().budget_for(make_request(estimated_drain_us=5.0))
            == DEFAULT_DRAIN_BUDGET_US
        )

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            HybridController(drain_budget_us=-1.0)

    def test_config_latency_budget_reaches_the_controller(self):
        config = SystemConfig(
            scheduler=SchedulerConfig(preemption_latency_budget_us=0.0)
        )
        system = build_system(config=config, controller="hybrid")
        system.run(max_events=5_000_000)
        stats = dict(system.controller.stats.snapshot())
        # A zero budget can never be met by a busy SM: every preemption of a
        # non-empty SM falls back to the context switch.
        assert stats.get("selected.context_switch", 0) > 0
        assert stats.get("selected.draining", 0) == 0


class TestAdaptiveController:
    def test_prefers_draining_when_drain_is_cheaper(self):
        request = make_request(
            estimated_drain_us=5.0, save_time_us=10.0, restore_time_us=10.0
        )
        assert AdaptiveController().select(request) == "draining"

    def test_prefers_switch_when_drain_is_expensive(self):
        request = make_request(
            estimated_drain_us=100.0, save_time_us=10.0, restore_time_us=10.0
        )
        assert AdaptiveController().select(request) == "context_switch"

    def test_tie_goes_to_draining(self):
        request = make_request(
            estimated_drain_us=20.5, save_time_us=10.0, restore_time_us=10.0
        )
        drain_cost, switch_cost = AdaptiveController().costs(request)
        assert drain_cost == switch_cost
        assert AdaptiveController().select(request) == "draining"

    def test_switch_bias_validated_and_applied(self):
        with pytest.raises(ValueError):
            AdaptiveController(switch_bias=0.0)
        request = make_request(
            estimated_drain_us=25.0, save_time_us=10.0, restore_time_us=10.0
        )
        assert AdaptiveController().select(request) == "context_switch"
        assert AdaptiveController(switch_bias=2.0).select(request) == "draining"


class TestEngineRequestConstruction:
    def _running_system(self) -> GPUSystem:
        from repro.gpu.kernel import KernelSpec
        from repro.gpu.resources import ResourceUsage
        from repro.trace.generator import KernelPhase

        system = GPUSystem(policy="fcfs")
        spec = KernelSpec(
            name="demo", benchmark="demo", num_thread_blocks=256,
            avg_tb_time_us=50.0,
            usage=ResourceUsage(registers_per_block=8192, shared_memory_per_block=0),
        )
        trace = TraceGenerator().build(
            "demo", phases=[KernelPhase(spec, cpu_time_us=1.0)],
            input_bytes=4096, output_bytes=4096,
            setup_cpu_time_us=1.0, teardown_cpu_time_us=1.0,
        )
        system.add_process("demo", trace, max_iterations=1)
        # Run just far enough that blocks are resident on the SMs (tiny
        # transfers put the launch within the first ~30 us; blocks run 50 us).
        system.run(until_us=60.0)
        assert not system.execution_engine.sm(0).is_empty
        return system

    def test_request_snapshots_residency_and_costs(self):
        system = self._running_system()
        engine = system.execution_engine
        request = engine.build_preemption_request(0, None)
        sm = engine.sm(0)
        assert request.sm_id == 0
        assert request.resident_blocks == sm.resident_blocks
        assert request.estimated_drain_us > 0.0
        assert request.estimated_drain_us == max(
            info.estimated_remaining_us for info in request.resident
        )
        # 8192 registers x 4 bytes per resident block.
        assert request.save_bytes == sm.resident_blocks * 8192 * 4
        bandwidth = system.config.gpu.per_sm_bandwidth_bytes_per_us
        assert request.save_time_us == pytest.approx(request.save_bytes / bandwidth)
        assert request.restore_time_us == pytest.approx(request.save_time_us)
        assert request.pipeline_drain_us == system.config.gpu.pipeline_drain_latency_us
        assert request.estimated_switch_us == pytest.approx(
            request.pipeline_drain_us + request.save_time_us
        )
        assert request.latency_budget_us is None
        assert request.resident_priority == 0

    def test_building_a_request_is_pure(self):
        system = self._running_system()
        engine = system.execution_engine
        before = system.simulator.events_processed
        first = engine.build_preemption_request(0, None)
        second = engine.build_preemption_request(0, None)
        assert first == second
        assert system.simulator.events_processed == before


class TestEngineRouting:
    def test_static_controller_is_byte_identical_to_legacy(self):
        for mechanism in ("context_switch", "draining"):
            legacy = run_fingerprint(build_system(mechanism))
            # Bare controller="static" adopts the scheme's mechanism; the
            # explicit option spells the same thing out.
            static = run_fingerprint(build_system(mechanism, controller="static"))
            explicit = run_fingerprint(build_system(mechanism, controller="static",
                                                    controller_options={"mechanism": mechanism}))
            default = run_fingerprint(build_system(mechanism, controller=None))
            assert static == legacy
            assert explicit == legacy
            assert default == legacy

    def test_hybrid_with_extreme_budgets_matches_the_endpoints(self):
        cs = run_fingerprint(build_system("context_switch"))
        drain = run_fingerprint(build_system("draining"))
        always_switch = run_fingerprint(
            build_system(controller="hybrid", controller_options={"drain_budget_us": 0.0})
        )
        always_drain = run_fingerprint(
            build_system(controller="hybrid", controller_options={"drain_budget_us": 1e12})
        )
        assert always_switch == cs
        assert always_drain == drain
        assert cs != drain

    def test_mechanism_instances_bind_lazily_per_choice(self):
        system = build_system(controller="hybrid",
                              controller_options={"drain_budget_us": 0.0})
        system.run(max_events=5_000_000)
        engine = system.execution_engine
        # A zero budget never selects draining, so only the default instance
        # exists and it carries every latency sample.
        assert set(engine.mechanisms()) == {"context_switch"}
        assert engine.mechanisms()["context_switch"].latency_stats.count > 0
        # Lookups create and bind on demand; aliases resolve to one instance.
        draining = engine.mechanism_named("draining")
        assert engine.mechanism_named("drain") is draining
        assert set(engine.mechanisms()) == {"context_switch", "draining"}
        assert draining.host is engine

    def test_mechanism_for_sm_defaults_to_the_fallback_mechanism(self):
        system = GPUSystem(policy="ppq", mechanism="draining")
        engine = system.execution_engine
        assert engine.mechanism_for_sm(0) is engine.mechanism

    def test_controller_instance_accepted_and_exposed(self):
        controller = HybridController(drain_budget_us=7.0)
        system = GPUSystem(policy="ppq", controller=controller)
        assert system.controller is controller
        with pytest.raises(ValueError, match="controller_options"):
            GPUSystem(policy="ppq", controller=controller,
                      controller_options={"drain_budget_us": 1.0})

    def test_preemptions_via_counters_track_choices(self):
        system = build_system(controller="hybrid",
                              controller_options={"drain_budget_us": 0.0})
        system.run(max_events=5_000_000)
        snapshot = system.execution_engine.utilization_snapshot()
        assert snapshot.get("preemptions_via.context_switch", 0) > 0
        assert "preemptions_via.draining" not in snapshot

