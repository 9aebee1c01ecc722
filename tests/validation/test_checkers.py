"""Unit tests for the runtime invariant-validation layer."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.runner import execute_scenario
from repro.scenario import ScenarioSpec, SchemeSpec
from repro.system import GPUSystem
from repro.trace.generator import TraceGenerator
from repro.validation import (
    InvariantValidationError,
    ValidationHub,
    default_checkers,
    make_hub,
)
from repro.validation.checkers import (
    DispatchChecker,
    MetricsChecker,
    OccupancyChecker,
    PreemptionChecker,
)


def _priority_scenario(validate: bool = True) -> ScenarioSpec:
    return ScenarioSpec(
        scheme=SchemeSpec(
            name="ppq_cs", policy="ppq", mechanism="context_switch", transfer_policy="npq"
        ),
        applications=("lbm", "spmv", "sad"),
        high_priority_index=0,
        scale="smoke",
        validate=validate,
    )


class TestCleanRuns:
    def test_simple_system_run_is_clean(self):
        system = GPUSystem(policy="fcfs", validate=True)
        trace = TraceGenerator().uniform_kernel("demo", num_blocks=64, tb_time_us=5.0)
        system.add_process("demo", trace, max_iterations=1)
        system.run()
        assert system.validation is not None
        assert system.validation.ok
        assert system.violations() == []
        assert "passed" in system.validation.summary()

    def test_preempting_scenario_is_clean_and_exercises_save_restore(self):
        system = GPUSystem.from_scenario(_priority_scenario())
        system.run(stop_after_min_iterations=1)
        hub = system.validation
        assert hub is not None and hub.ok
        preemption = next(c for c in hub.checkers if isinstance(c, PreemptionChecker))
        # The run must actually exercise context-switch preemption, otherwise
        # the saved == restored invariant is vacuous.  Blocks still waiting in
        # a PTBQ when the run stops count as outstanding saved state.
        assert preemption.saved_bytes > 0
        assert preemption.saved_bytes == (
            preemption.restored_bytes + preemption.outstanding_bytes
        )

    def test_hybrid_mid_drain_fallback_balances_saved_and_restored_state(self):
        """Save/restore balance under the hybrid controller's mixed regime.

        A hybrid run whose drain deadline bites for long blocks but not for
        short ones interleaves draining completions with context-switch
        evictions; the PreemptionChecker balance (saved == restored +
        outstanding) must hold across the mix, and drain completions must
        still never produce evicted state.
        """
        from repro.gpu.kernel import KernelSpec
        from repro.gpu.resources import ResourceUsage
        from repro.trace.generator import KernelPhase

        def kernel(name, blocks, tb_time):
            return KernelSpec(
                name=name, benchmark=name, num_thread_blocks=blocks,
                avg_tb_time_us=tb_time,
                usage=ResourceUsage(registers_per_block=8192, shared_memory_per_block=0),
            )

        def app(name, phases):
            return TraceGenerator().build(
                name, phases=phases, input_bytes=4096, output_bytes=4096,
                setup_cpu_time_us=1.0, teardown_cpu_time_us=1.0,
            )

        system = GPUSystem(
            policy="ppq",
            controller="hybrid",
            controller_options={"drain_budget_us": 20.0},
            validate=True,
        )
        # Two phases of low-priority work: short (4 us) blocks first, long
        # (100 us) blocks once the short kernel runs out.  The high-priority
        # process launches twice — once early (during the short phase, where
        # the estimated drain fits the 20 us deadline) and once after a long
        # CPU phase (during the long phase, where it does not) — so the
        # hybrid drains first and falls back to the context switch later.
        system.add_process(
            "short",
            app("short", [KernelPhase(kernel("short", 2000, 4.0), cpu_time_us=1.0)]),
            priority=1, max_iterations=1,
        )
        system.add_process(
            "long",
            app("long", [KernelPhase(kernel("long", 1000, 100.0), cpu_time_us=1.0)]),
            priority=0, start_delay_us=0.1, max_iterations=1,
        )
        system.add_process(
            "high",
            app(
                "high",
                [
                    KernelPhase(kernel("high_a", 52, 5.0), cpu_time_us=10.0),
                    KernelPhase(kernel("high_b", 52, 5.0), cpu_time_us=400.0),
                ],
            ),
            priority=10, start_delay_us=10.0, max_iterations=1,
        )
        system.run(max_events=5_000_000)

        hub = system.validation
        assert hub is not None and hub.ok, hub.to_dicts()
        stats = system.execution_engine.stats
        # Both sides of the fallback fired: some requests drained within the
        # deadline, others fell back to the context switch.
        assert stats["preemptions_via.draining"] > 0
        assert stats["preemptions_via.context_switch"] > 0
        preemption = next(c for c in hub.checkers if isinstance(c, PreemptionChecker))
        assert preemption.saved_bytes > 0
        assert preemption.saved_bytes == (
            preemption.restored_bytes + preemption.outstanding_bytes
        )

    def test_validation_does_not_perturb_results(self):
        plain = execute_scenario(_priority_scenario(validate=False))
        validated = execute_scenario(_priority_scenario(validate=True))
        assert plain.result.process_times_us == validated.result.process_times_us
        assert plain.result.events_processed == validated.result.events_processed
        assert plain.result.simulated_time_us == validated.result.simulated_time_us
        assert not plain.result.validated
        assert validated.result.validated and validated.ok

    def test_validation_off_by_default(self):
        system = GPUSystem(policy="fcfs")
        assert system.validation is None
        assert system.violations() == []


class TestHub:
    def test_attach_twice_rejected(self):
        hub = make_hub()
        hub.attach(GPUSystem(policy="fcfs"))
        with pytest.raises(RuntimeError, match="only be attached once"):
            hub.attach(GPUSystem(policy="fcfs"))

    def test_raise_if_violations(self):
        checker = DispatchChecker()
        hub = ValidationHub([checker])
        hub.attach(GPUSystem(policy="fcfs"))
        assert hub.ok
        hub.raise_if_violations()  # no-op while clean
        checker.record("broken", "synthetic violation for the test")
        assert not hub.ok
        with pytest.raises(InvariantValidationError, match="synthetic violation"):
            hub.raise_if_violations()

    def test_finalize_is_rerunnable_without_duplicating_findings(self):
        system = GPUSystem(policy="fcfs", validate=True)
        trace = TraceGenerator().uniform_kernel("demo", num_blocks=32, tb_time_us=5.0)
        system.add_process("demo", trace, max_iterations=1)
        # Two run() segments -> two finalize passes over the same hub.
        system.run(until_us=10.0)
        system.run()
        assert system.validation.ok
        # An unbalanced finalize-stage check reports exactly once per pass,
        # not once per finalize call.
        preemption = next(
            c for c in system.validation.checkers if isinstance(c, PreemptionChecker)
        )
        preemption.saved_bytes += 1024  # corrupt the balance
        system.validation.finalize()
        system.validation.finalize()
        assert len(system.validation.violations) == 1
        assert system.validation.violations[0].invariant == "saved_restored_mismatch"

    def test_violations_sorted_and_serialisable(self):
        checker = DispatchChecker()
        hub = ValidationHub([checker])
        hub.attach(GPUSystem(policy="fcfs"))
        checker.record("late", "second", time_us=5.0)
        checker.record("early", "first", time_us=1.0)
        dicts = hub.to_dicts()
        assert [d["invariant"] for d in dicts] == ["early", "late"]
        assert set(dicts[0]) == {"checker", "invariant", "time_us", "message"}


class TestCorruptedCheckers:
    """A deliberately corrupted checker must surface violations in RunRecord."""

    class CorruptedOccupancyChecker(OccupancyChecker):
        """Pretends the register file is 100x smaller than configured."""

        name = "corrupted_occupancy"

        def on_block_started(self, sm, block) -> None:
            framework = self.system.execution_engine.framework
            if not framework.ksr_valid(sm.ksr_index):
                return
            usage = framework.ksr(sm.ksr_index).launch.spec.usage
            budget = self.system.config.gpu.registers_per_sm // 100
            if sm.resident_blocks * usage.registers_per_block > budget:
                self.record(
                    "register_limit_exceeded",
                    f"SM{sm.sm_id} exceeds the (corrupted) register budget {budget}",
                )

    def test_corrupted_checker_reports_in_run_record(self, monkeypatch):
        import repro.validation as validation_module

        def corrupted_hub():
            return ValidationHub([self.CorruptedOccupancyChecker()])

        monkeypatch.setattr(validation_module, "make_hub", corrupted_hub)
        record = execute_scenario(_priority_scenario(validate=True))
        assert not record.ok
        assert record.violations
        assert all(v["checker"] == "corrupted_occupancy" for v in record.violations)
        payload = record.to_dict()
        assert payload["violations"] == record.violations
        assert payload["validated"] is True

    def test_default_checkers_report_clean_on_same_scenario(self):
        record = execute_scenario(_priority_scenario(validate=True))
        assert record.ok
        assert record.to_dict()["violations"] == []


class TestIndividualCheckers:
    def test_preemption_checker_detects_unbalanced_state(self):
        checker = PreemptionChecker()
        checker.saved_bytes = 4096  # pretend state was saved but never restored
        checker.finalize(system=None)
        assert [v.invariant for v in checker.violations] == ["saved_restored_mismatch"]

    def test_metrics_checker_detects_inconsistent_iterations(self):
        checker = MetricsChecker()
        record = SimpleNamespace(
            index=0, start_time_us=10.0, end_time_us=4.0, duration_us=-6.0
        )
        process = SimpleNamespace(
            name="bad",
            trace=SimpleNamespace(total_cpu_time_us=100.0),
            iterations=[record],
        )
        checker.finalize(SimpleNamespace(processes=[process]))
        invariants = {v.invariant for v in checker.violations}
        assert "iteration_ends_before_start" in invariants
        assert "turnaround_below_execution" in invariants

    def test_default_checkers_are_fresh_instances(self):
        first, second = default_checkers(), default_checkers()
        assert {type(c) for c in first} == {type(c) for c in second}
        assert all(a is not b for a, b in zip(first, second))
