"""Tests for the declarative SchemeSpec / ScenarioSpec API."""

from __future__ import annotations

import json

import pytest

from repro.core.policies import DynamicSpatialSharingPolicy, PreemptivePriorityPolicy
from repro.core.preemption import DrainingMechanism
from repro.experiments.dss_data import DSS_SCHEMES
from repro.experiments.priority_data import PRIORITY_SCHEMES
from repro.gpu.config import SystemConfig
from repro.memory.transfer_engine import TransferSchedulingPolicy
from repro.scenario import (
    ScenarioSpec,
    SchemeSpec,
    apply_config_overrides,
    config_to_overrides,
)
from repro.system import GPUSystem
from repro.trace import TraceGenerator
from repro.workloads.multiprogram import WorkloadSpec


class TestSchemeSpec:
    def test_round_trips_for_every_experiment_scheme(self):
        for catalog in (PRIORITY_SCHEMES, DSS_SCHEMES):
            for scheme in catalog.values():
                assert SchemeSpec.from_dict(scheme.to_dict()) == scheme
                assert SchemeSpec.from_json(scheme.to_json()) == scheme
                scheme.validate()  # every name resolves in the registries

    def test_accepts_transfer_policy_enum(self):
        scheme = SchemeSpec(policy="fcfs", transfer_policy=TransferSchedulingPolicy.PRIORITY)
        assert scheme.transfer_policy == "npq"
        assert scheme.build_transfer_policy() is TransferSchedulingPolicy.PRIORITY

    def test_builds_components(self):
        scheme = SchemeSpec(policy="ppq_shared", mechanism="draining")
        policy = scheme.build_policy()
        assert isinstance(policy, PreemptivePriorityPolicy)
        assert policy.exclusive_access is False
        assert isinstance(scheme.build_mechanism(), DrainingMechanism)

    def test_label_defaults(self):
        assert SchemeSpec(policy="fcfs").label == "fcfs_context_switch"
        assert SchemeSpec(policy="fcfs", name="base").label == "base"

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SchemeSpec(policy="")
        with pytest.raises(ValueError, match="unknown SchemeSpec keys"):
            SchemeSpec.from_dict({"policy": "fcfs", "bogus": 1})


class TestSchemeSpecController:
    def test_controller_round_trips_through_json(self):
        scheme = SchemeSpec(
            policy="ppq",
            mechanism="context_switch",
            transfer_policy="npq",
            controller="hybrid",
            controller_options={"drain_budget_us": 12.5},
        )
        assert SchemeSpec.from_dict(scheme.to_dict()) == scheme
        assert SchemeSpec.from_json(scheme.to_json()) == scheme
        payload = json.loads(scheme.to_json())
        assert payload["controller"] == "hybrid"
        assert payload["controller_options"] == {"drain_budget_us": 12.5}
        scheme.validate()

    def test_legacy_payload_without_controller_keys_still_loads(self):
        # Pre-controller archives round-trip into controller-less specs.
        legacy = {
            "policy": "ppq",
            "mechanism": "draining",
            "transfer_policy": "npq",
            "policy_options": {},
            "name": "ppq_drain",
        }
        scheme = SchemeSpec.from_dict(legacy)
        assert scheme.controller is None
        assert scheme.controller_options == {}
        assert scheme == SchemeSpec.from_dict(scheme.to_dict())

    def test_build_controller(self):
        from repro.core.preemption import HybridController

        assert SchemeSpec(policy="fcfs").build_controller() is None
        controller = SchemeSpec(
            policy="ppq", controller="hybrid",
            controller_options={"drain_budget_us": 3.0},
        ).build_controller()
        assert isinstance(controller, HybridController)
        assert controller.drain_budget_us == 3.0

    def test_label_includes_controller(self):
        assert SchemeSpec(policy="ppq", controller="adaptive").label == "ppq_adaptive"
        assert SchemeSpec(policy="ppq").label == "ppq_context_switch"
        assert SchemeSpec(policy="ppq", controller="adaptive", name="x").label == "x"

    def test_rejects_options_without_controller_and_unknown_names(self):
        with pytest.raises(ValueError, match="controller_options"):
            SchemeSpec(policy="ppq", controller_options={"drain_budget_us": 1.0})
        with pytest.raises(ValueError, match="controller"):
            SchemeSpec(policy="ppq", controller="").validate()
        with pytest.raises(ValueError, match="preemption controller"):
            SchemeSpec(policy="ppq", controller="warp_drive").validate()

    def test_scenario_with_controller_builds_running_system(self):
        from repro.core.preemption import AdaptiveController
        from repro.system import GPUSystem

        spec = ScenarioSpec(
            scheme=SchemeSpec(
                policy="ppq", mechanism="context_switch", transfer_policy="npq",
                controller="adaptive",
            ),
            applications=("lbm", "spmv"),
            high_priority_index=0,
            scale="smoke",
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        system = GPUSystem.from_scenario(spec)
        assert isinstance(system.controller, AdaptiveController)
        system.run(stop_after_min_iterations=1)
        assert all(p.completed_iterations >= 1 for p in system.processes)


class TestScenarioSpec:
    def scenario(self, **kwargs) -> ScenarioSpec:
        defaults = dict(
            scheme=PRIORITY_SCHEMES["ppq_cs"],
            applications=("mri-q", "lbm"),
            high_priority_index=0,
            scale="smoke",
        )
        defaults.update(kwargs)
        return ScenarioSpec(**defaults)

    def test_json_round_trip(self):
        spec = self.scenario(
            config_overrides={"gpu": {"num_sms": 8}, "tb_time_cv": 0.0},
            min_iterations=2,
            max_events=123_456,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        json.loads(spec.to_json())  # plain JSON, no custom encoder needed

    def test_round_trips_for_every_experiment_scheme(self):
        workload = WorkloadSpec(applications=("lbm", "spmv"), workload_id=3)
        for catalog in (PRIORITY_SCHEMES, DSS_SCHEMES):
            for scheme in catalog.values():
                spec = ScenarioSpec.for_workload(workload, scheme, scale="smoke")
                assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one application"):
            self.scenario(applications=())
        with pytest.raises(ValueError, match="out of range"):
            self.scenario(high_priority_index=5)
        with pytest.raises(ValueError, match="min_iterations"):
            self.scenario(min_iterations=0)
        with pytest.raises(ValueError, match="unknown workload scale"):
            self.scenario(scale="enormous").workload_scale()

    def test_payload_with_removed_queue_key_is_rejected(self):
        payload = self.scenario().to_dict()
        payload["queue"] = "heap"
        with pytest.raises(ValueError, match=r"unknown ScenarioSpec keys: \['queue'\]"):
            ScenarioSpec.from_dict(payload)

    def test_derived_quantities(self):
        spec = self.scenario()
        assert spec.num_processes == 2
        assert spec.process_names() == ["mri-q#0", "lbm#1"]
        assert spec.resolved_min_iterations() == spec.workload_scale().min_iterations
        assert spec.describe().startswith("W0[mri-q*, lbm]")

    def test_tuple_overrides_survive_json_round_trip(self):
        # config_to_overrides emits tuples for GPUConfig's tuple fields;
        # equality must survive JSON (tuples canonicalised to lists).
        spec = self.scenario(
            config_overrides={"gpu": {"shared_memory_configs": (16384, 32768)}}
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.system_config().gpu.shared_memory_configs == (16384, 32768)

    def test_config_overrides_round_trip(self):
        config = SystemConfig().with_updates(tb_time_cv=0.0)
        overrides = config_to_overrides(config)
        assert overrides == {"tb_time_cv": 0.0}
        assert apply_config_overrides(SystemConfig(), overrides) == config
        # Nested dataclass overrides too.
        spec = self.scenario(config_overrides={"gpu": {"num_sms": 7}})
        assert spec.system_config().gpu.num_sms == 7
        with pytest.raises(ValueError, match="unknown SystemConfig field"):
            apply_config_overrides(SystemConfig(), {"bogus": 1})


class TestFromScenario:
    def test_builds_matching_system(self):
        spec = ScenarioSpec(
            scheme=PRIORITY_SCHEMES["ppq_drain"],
            applications=("mri-q", "lbm"),
            high_priority_index=0,
            scale="smoke",
        )
        system = GPUSystem.from_scenario(spec)
        assert system.policy.name == "ppq"
        assert system.mechanism.name == "draining"
        assert [p.name for p in system.processes] == ["mri-q#0", "lbm#1"]
        assert system.process("mri-q#0").priority == spec.high_priority
        assert system.process("lbm#1").priority == spec.normal_priority

    def test_dss_gets_process_count_default(self):
        spec = ScenarioSpec(
            scheme=DSS_SCHEMES["dss_cs"],
            applications=("lbm", "spmv", "sad"),
            scale="smoke",
        )
        system = GPUSystem.from_scenario(spec)
        assert isinstance(system.policy, DynamicSpatialSharingPolicy)
        assert system.policy._process_count == 3  # noqa: SLF001

    def test_runs_end_to_end(self):
        spec = ScenarioSpec(
            scheme=SchemeSpec(policy="fcfs"),
            applications=("sad",),
            scale="smoke",
            min_iterations=1,
        )
        system = GPUSystem.from_scenario(spec)
        system.run(
            stop_after_min_iterations=spec.resolved_min_iterations(),
            max_events=spec.resolved_max_events(),
        )
        assert system.process("sad#0").completed_iterations >= 1

    def test_open_loop_scenario_builds_no_processes(self):
        spec = ScenarioSpec(
            scheme=SchemeSpec(policy="fcfs"),
            applications=("sad", "lbm"),
            scale="smoke",
            arrivals={"horizon_us": 1_000.0},
        )
        assert GPUSystem.from_scenario(spec).processes == []

    def test_resume_values_continue_clock_and_launch_ids(self):
        spec = ScenarioSpec(
            scheme=SchemeSpec(policy="fcfs"), applications=("sad",), scale="smoke"
        )
        system = GPUSystem.from_scenario(spec, start_time_us=1_234.5, launch_base=41)
        assert system.simulator.now == 1_234.5
        trace = TraceGenerator().uniform_kernel("probe", num_blocks=4, tb_time_us=1.0)
        context = system.driver.create_context("probe")
        command = system.driver.launch_kernel(context, next(iter(trace.kernels.values())))
        assert command.launch.launch_id == 42

    @pytest.mark.parametrize(
        "resume",
        [
            {"start_time_us": -1.0},
            {"start_time_us": float("nan")},
            {"start_time_us": float("inf")},
            {"launch_base": -1},
            {"launch_base": True},
        ],
        ids=["negative-clock", "nan-clock", "infinite-clock", "negative-base", "bool-base"],
    )
    def test_rejects_bad_resume_values(self, resume):
        spec = ScenarioSpec(
            scheme=SchemeSpec(policy="fcfs"), applications=("sad",), scale="smoke"
        )
        with pytest.raises(ValueError, match=next(iter(resume))):
            GPUSystem.from_scenario(spec, **resume)
