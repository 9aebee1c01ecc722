"""Tests for the Streaming Multiprocessor model."""

from __future__ import annotations

import pytest

from repro.gpu.config import GPUConfig
from repro.gpu.sm import StreamingMultiprocessor, UtilizationTracker
from repro.gpu.thread_block import ThreadBlock, ThreadBlockState


@pytest.fixture
def sm(simulator, gpu_config):
    return StreamingMultiprocessor(0, gpu_config, simulator)


def configure(sm, max_blocks=4):
    sm.configure(
        ksr_index=0,
        context_id=1,
        page_table_base=0x1000,
        max_resident_blocks=max_blocks,
        shared_memory_config=16 * 1024,
    )


def make_block(index: int, time_us: float = 10.0) -> ThreadBlock:
    return ThreadBlock(kernel_launch_id=1, block_index=index, execution_time_us=time_us)


class TestConfiguration:
    def test_initial_state_is_idle(self, sm):
        assert sm.is_empty
        assert sm.ksr_index is None

    def test_configure_loads_context_registers(self, sm):
        configure(sm)
        assert sm.ksr_index == 0
        assert sm.context_id_register == 1
        assert sm.page_table_register == 0x1000
        assert sm.max_resident_blocks == 4

    def test_release_clears_registers(self, sm):
        configure(sm)
        sm.release()
        assert sm.context_id_register is None
        assert sm.ksr_index is None

    def test_configure_with_resident_blocks_rejected(self, sm, simulator):
        configure(sm)
        sm.start_blocks([(make_block(0), 0.0)], on_complete=lambda b: None)
        with pytest.raises(RuntimeError):
            configure(sm)

    def test_release_with_resident_blocks_rejected(self, sm):
        configure(sm)
        sm.start_blocks([(make_block(0), 0.0)], on_complete=lambda b: None)
        with pytest.raises(RuntimeError):
            sm.release()


class TestExecution:
    def test_block_completes_after_its_execution_time(self, sm, simulator):
        configure(sm)
        done = []
        sm.start_blocks([(make_block(0, 10.0), 1.0)], on_complete=done.append)
        simulator.run()
        assert len(done) == 1
        assert done[0].state is ThreadBlockState.COMPLETED
        assert simulator.now == pytest.approx(11.0)
        assert sm.is_empty
        assert sm.blocks_executed == 1

    def test_capacity_enforced(self, sm):
        configure(sm, max_blocks=2)
        sm.start_blocks([(make_block(0), 0.0)], on_complete=lambda b: None)
        sm.start_blocks([(make_block(1), 0.0)], on_complete=lambda b: None)
        assert sm.resident_blocks == sm.max_resident_blocks
        with pytest.raises(RuntimeError):
            sm.start_blocks([(make_block(2), 0.0)], on_complete=lambda b: None)

    def test_duplicate_block_rejected(self, sm):
        configure(sm)
        block = make_block(0)
        sm.start_blocks([(block, 0.0)], on_complete=lambda b: None)
        duplicate = make_block(0)
        with pytest.raises(RuntimeError):
            sm.start_blocks([(duplicate, 0.0)], on_complete=lambda b: None)

    def test_concurrent_blocks_finish_independently(self, sm, simulator):
        configure(sm)
        done = []
        sm.start_blocks([(make_block(0, 5.0), 0.0)], on_complete=done.append)
        sm.start_blocks([(make_block(1, 10.0), 0.0)], on_complete=done.append)
        simulator.run(until=6.0)
        assert len(done) == 1
        assert sm.resident_blocks == 1
        simulator.run()
        assert len(done) == 2


class TestEviction:
    def test_evict_all_cancels_completions_and_preempts(self, sm, simulator):
        configure(sm)
        done = []
        sm.start_blocks([(make_block(0, 10.0), 0.0)], on_complete=done.append)
        sm.start_blocks([(make_block(1, 20.0), 0.0)], on_complete=done.append)
        simulator.run(until=4.0)
        evicted = sm.evict_all()
        simulator.run()
        assert done == []
        assert len(evicted) == 2
        assert all(b.state is ThreadBlockState.PREEMPTED for b in evicted)
        assert {round(b.remaining_time_us) for b in evicted} == {6, 16}
        assert sm.is_empty
        assert sm.blocks_preempted == 2

    def test_evict_empty_sm_returns_nothing(self, sm):
        configure(sm)
        assert sm.evict_all() == []
        assert sm.blocks_preempted == 0


class TestUtilization:
    def test_busy_fraction_reflects_resident_time(self, sm, simulator):
        configure(sm)
        sm.start_blocks([(make_block(0, 10.0), 0.0)], on_complete=lambda b: None)
        simulator.run()
        simulator.schedule(10.0, lambda: None)
        simulator.run()
        # Busy 10 us out of 20 us total.
        assert sm.busy_fraction() == pytest.approx(0.5, abs=0.01)


class TestUtilizationTracker:
    def test_fully_busy(self):
        tracker = UtilizationTracker(0.0)
        tracker.set_busy(0.0)
        assert tracker.utilization(10.0) == pytest.approx(1.0)

    def test_half_busy(self):
        tracker = UtilizationTracker(0.0)
        tracker.set_busy(0.0)
        tracker.set_idle(5.0)
        assert tracker.utilization(10.0) == pytest.approx(0.5)
        assert tracker.busy_time(10.0) == pytest.approx(5.0)

    def test_idempotent_transitions(self):
        tracker = UtilizationTracker(0.0)
        tracker.set_busy(1.0)
        tracker.set_busy(2.0)
        tracker.set_idle(3.0)
        tracker.set_idle(4.0)
        assert tracker.busy_time(10.0) == pytest.approx(2.0)

    def test_zero_window(self):
        tracker = UtilizationTracker(5.0)
        assert tracker.utilization(5.0) == 0.0

    def test_zero_length_idle_gap_does_not_split_the_interval(self):
        tracker = UtilizationTracker(0.0)
        tracker.set_busy(0.1)
        tracker.set_idle(0.11)
        tracker.set_busy(0.11)
        tracker.set_idle(0.25)
        # Split in two, the sum would read 0.15000000000000002.
        assert tracker.busy_time(1.0) == 0.25 - 0.1

    def test_utilization_capped_at_one(self):
        tracker = UtilizationTracker(1.0)
        tracker.set_busy(0.0)
        assert tracker.utilization(2.0) <= 1.0


class TestWaveBatching:
    def test_release_resets_shared_memory_config(self, sm, gpu_config):
        configure(sm)
        sm.shared_memory_config = 48 * 1024
        sm.release()
        assert sm.shared_memory_config == gpu_config.default_shared_memory_bytes

    def test_same_completion_blocks_share_one_wave_event(self, sm, simulator):
        configure(sm)
        done = []
        blocks = [make_block(i, 10.0) for i in range(3)]
        sm.start_blocks([(b, 0.5) for b in blocks], on_complete=done.append)
        # One aggregated heap event instead of three.
        assert simulator.pending_events == 1
        assert len({id(w) for w in sm._completions.values()}) == 1
        simulator.run()
        assert [b.block_index for b in done] == [0, 1, 2]
        assert all(b.state is ThreadBlockState.COMPLETED for b in blocks)
        assert sm.completion_waves_fired == 1

    def test_single_block_event_label_renders_the_block_key(self, sm, simulator):
        # obs normalize_label kinds and the metrics goldens read this text.
        configure(sm)
        block = ThreadBlock(kernel_launch_id=17, block_index=3, execution_time_us=10.0)
        sm.start_blocks([(block, 0.5)], on_complete=lambda b: None)
        assert simulator.pending_labels() == ["sm0.block(17, 3).complete"]

    def test_heterogeneous_remainders_fall_back_to_per_block_events(self, sm, simulator):
        configure(sm)
        done = []
        blocks = [make_block(0, 10.0), make_block(1, 12.0), make_block(2, 10.0)]
        sm.start_blocks([(b, 0.5) for b in blocks], on_complete=done.append)
        # Blocks 0 and 2 share an instant (one wave); block 1 is alone.
        assert simulator.pending_events == 2
        simulator.run()
        assert [b.block_index for b in done] == [0, 2, 1]

    def test_wave_batching_off_schedules_one_event_per_block(self, simulator, gpu_config):
        import dataclasses

        config = dataclasses.replace(gpu_config, wave_batching=False)
        sm = StreamingMultiprocessor(0, config, simulator)
        configure(sm)
        blocks = [make_block(i, 10.0) for i in range(3)]
        sm.start_blocks([(b, 0.5) for b in blocks], on_complete=lambda b: None)
        assert simulator.pending_events == 3

    def test_refills_join_the_pending_wave_across_calls(self, sm, simulator):
        configure(sm)
        done = []
        sm.start_blocks([(make_block(0, 10.0), 0.0)], on_complete=done.append)
        assert simulator.pending_events == 1
        # Scheduled immediately after with the same completion instant and no
        # intervening event: joins instead of creating a second heap event.
        sm.start_blocks([(make_block(1, 10.0), 0.0)], on_complete=done.append)
        assert simulator.pending_events == 1
        # An intervening foreign event breaks sequence contiguity: no join.
        simulator.schedule(999.0, lambda: None)
        sm.start_blocks([(make_block(2, 10.0), 0.0)], on_complete=done.append)
        assert simulator.pending_events == 3
        simulator.run(until=20.0)
        assert [b.block_index for b in done] == [0, 1, 2]

    def test_eviction_cancels_wave_only_when_all_owners_let_go(self, sm, simulator):
        configure(sm)
        blocks = [make_block(i, 10.0) for i in range(2)]
        sm.start_blocks([(b, 0.0) for b in blocks], on_complete=lambda b: None)
        assert simulator.pending_events == 1
        evicted = sm.evict_all()
        assert len(evicted) == 2
        # The shared wave event is cancelled exactly once, with the SM empty.
        assert simulator.pending_events == 0
        assert simulator.events_cancelled == 1
        simulator.run()
        assert all(b.state is ThreadBlockState.PREEMPTED for b in blocks)

    def test_reissued_block_is_not_completed_by_its_stale_wave(self, sm, simulator):
        configure(sm)
        done = []
        block = make_block(0, 10.0)
        sm.start_blocks([(block, 0.0)], on_complete=done.append)
        # Break joining so the re-issue gets its own (later) event.
        simulator.schedule(999.0, lambda: None)
        sm.evict_all()
        block.remaining_time_us = 10.0
        sm.start_blocks([(block, 5.0)], on_complete=done.append)
        simulator.run(until=12.0)
        # The original instant passed without completing the block.
        assert done == []
        assert block.state is ThreadBlockState.RUNNING
        simulator.run(until=20.0)
        assert [b.block_index for b in done] == [0]
        assert block.state is ThreadBlockState.COMPLETED

    def test_cross_sm_waves_share_events_through_the_anchor(self, simulator, gpu_config):
        from repro.gpu.sm import WaveAnchor

        anchor = WaveAnchor()
        sms = [
            StreamingMultiprocessor(i, gpu_config, simulator, wave_anchor=anchor)
            for i in range(2)
        ]
        for sm in sms:
            configure(sm)
        done = []
        sms[0].start_blocks([(make_block(0, 10.0), 0.0)], on_complete=done.append)
        sms[1].start_blocks([(make_block(1, 10.0), 0.0)], on_complete=done.append)
        # Same instant, contiguous sequence numbers: one shared event.
        assert simulator.pending_events == 1
        # Evicting one SM must not cancel the other SM's completion.
        assert len(sms[0].evict_all()) == 1
        assert simulator.pending_events == 1
        simulator.run()
        assert [b.block_index for b in done] == [1]

    def test_stale_wave_skips_block_reissued_under_a_new_event(self, simulator, gpu_config):
        """Identity check: a still-live shared wave must not complete a block
        that was evicted and re-issued under a newer completion event."""
        from repro.gpu.sm import WaveAnchor

        anchor = WaveAnchor()
        sms = [
            StreamingMultiprocessor(i, gpu_config, simulator, wave_anchor=anchor)
            for i in range(2)
        ]
        for sm in sms:
            configure(sm)
        done = []
        victim = make_block(0, 10.0)
        sms[0].start_blocks([(victim, 0.0)], on_complete=done.append)
        sms[1].start_blocks([(make_block(1, 10.0), 0.0)], on_complete=done.append)
        assert simulator.pending_events == 1  # shared wave
        sms[0].evict_all()  # wave stays live through SM1's block
        simulator.schedule(999.0, lambda: None)  # break joining
        victim.remaining_time_us = 10.0
        sms[0].start_blocks([(victim, 5.0)], on_complete=done.append)
        simulator.run(until=12.0)
        # At t=10 the stale wave completed only SM1's block.
        assert [b.block_index for b in done] == [1]
        assert victim.state is ThreadBlockState.RUNNING
        simulator.run(until=20.0)
        assert [b.block_index for b in done] == [1, 0]

    def test_span_rebuilt_while_its_wave_fires_still_retires(self, simulator, gpu_config):
        """A retire that calls ``resident()`` on another SM rebuilds that SM's
        span of the same wave as blocks; the firing loop reaches every one."""
        from repro.gpu.blockrun import BlockRun
        from repro.gpu.kernel import KernelLaunch, KernelSpec
        from repro.gpu.resources import ResourceUsage
        from repro.gpu.sm import WaveAnchor

        anchor = WaveAnchor()
        sms = [
            StreamingMultiprocessor(i, gpu_config, simulator, wave_anchor=anchor)
            for i in range(2)
        ]
        for sm in sms:
            configure(sm)
        spec = KernelSpec(
            name="k", benchmark="b", num_thread_blocks=3, avg_tb_time_us=10.0,
            usage=ResourceUsage(registers_per_block=1, shared_memory_per_block=0),
        )
        launch = KernelLaunch(spec=spec, launch_id=2, context_id=1)
        done = []
        sms[0].start_blocks(
            [(make_block(0, 10.0), 0.0)], on_complete=lambda block: sms[1].resident()
        )
        first, taken = launch.take_fresh_span(3)
        sms[1].start_run(
            BlockRun(launch, first, taken, 10.0), extra_latency_us=0.0, on_complete=done.append
        )
        assert simulator.pending_events == 1  # one wave for both SMs
        simulator.run()
        assert [block.block_index for block in done] == [0, 1, 2]
        assert all(block.state is ThreadBlockState.COMPLETED for block in done)
        assert sms[1].is_empty
