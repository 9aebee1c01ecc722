"""Tests for the DRAM model, address spaces and the GPU memory allocator."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.config import GPUConfig
from repro.memory.address_space import PAGE_SIZE, AddressSpace
from repro.memory.allocator import AllocationError, GPUMemoryAllocator
from repro.memory.dram import DRAMModel


@pytest.fixture
def dram(gpu_config) -> DRAMModel:
    return DRAMModel(gpu_config)


@pytest.fixture
def allocator(dram) -> GPUMemoryAllocator:
    return GPUMemoryAllocator(dram)


class TestDRAM:
    def test_capacity_accounting(self, dram):
        dram.reserve(1024)
        dram.reserve(2048)
        assert dram.allocated_bytes == 3072
        dram.release(1024)
        assert dram.allocated_bytes == 2048
        assert dram.free_bytes == dram.capacity_bytes - 2048

    def test_oversubscription_rejected(self, dram):
        with pytest.raises(MemoryError):
            dram.reserve(dram.capacity_bytes + 1)

    def test_negative_sizes_rejected(self, dram):
        with pytest.raises(ValueError):
            dram.reserve(-1)
        with pytest.raises(ValueError):
            dram.release(-1)

    def test_per_sm_transfer_time_matches_paper_model(self, dram, gpu_config):
        # lbm's fully occupied SM: 15 blocks x 4320 regs x 4 B = 259200 B
        # over 208/13 GB/s = 16.2 us (Table 1).
        assert dram.per_sm_transfer_time_us(259200) == pytest.approx(16.2, abs=0.01)

    def test_full_bandwidth_faster_than_share(self, dram):
        assert dram.transfer_time_us(1 << 20) < dram.per_sm_transfer_time_us(1 << 20)

    def test_invalid_bandwidth_share(self, dram):
        with pytest.raises(ValueError):
            dram.transfer_time_us(100, bandwidth_share=0.0)


class TestAddressSpace:
    def test_allocation_maps_all_pages(self):
        space = AddressSpace(1)
        allocation = space.record_allocation(3 * PAGE_SIZE + 1, first_frame=10)
        assert allocation.num_pages == 4
        assert space.allocated_bytes == 3 * PAGE_SIZE + 1
        for offset in range(0, allocation.num_pages * PAGE_SIZE, PAGE_SIZE):
            assert space.allocation_containing(allocation.virtual_address + offset) is allocation

    def test_translate_round_trips_every_page(self):
        space = AddressSpace(1)
        space.record_allocation(PAGE_SIZE, first_frame=3)
        allocation = space.record_allocation(3 * PAGE_SIZE + 1, first_frame=0x99)
        for page in range(allocation.num_pages):
            for offset in (0, 123, PAGE_SIZE - 1):
                address = allocation.virtual_address + page * PAGE_SIZE + offset
                assert space.translate(address) == (0x99 + page) * PAGE_SIZE + offset

    def test_translate_faults_one_byte_past_last_page(self):
        space = AddressSpace(1)
        allocation = space.record_allocation(3 * PAGE_SIZE + 1, first_frame=0)
        end = allocation.virtual_address + allocation.num_pages * PAGE_SIZE
        assert space.translate(end - 1) == end - 1 - allocation.virtual_address
        with pytest.raises(KeyError, match="page fault"):
            space.translate(end)
        with pytest.raises(KeyError, match="page fault"):
            space.translate(allocation.virtual_address - 1)

    def test_translate_faults_after_remove_allocation(self):
        space = AddressSpace(1)
        allocation = space.record_allocation(2 * PAGE_SIZE, first_frame=5)
        space.remove_allocation(allocation.virtual_address)
        for offset in (0, PAGE_SIZE, 2 * PAGE_SIZE - 1):
            with pytest.raises(KeyError, match="page fault"):
                space.translate(allocation.virtual_address + offset)

    def test_remove_absent_address_rejected(self):
        space = AddressSpace(1)
        with pytest.raises(KeyError):
            space.remove_allocation(AddressSpace.BASE_VIRTUAL_ADDRESS)
        allocation = space.record_allocation(2 * PAGE_SIZE, first_frame=0)
        # Only an allocation's start address names it.
        with pytest.raises(KeyError):
            space.remove_allocation(allocation.virtual_address + PAGE_SIZE)
        assert space.allocation_containing(allocation.virtual_address) is allocation

    def test_allocations_do_not_overlap(self):
        space = AddressSpace(1)
        first = space.record_allocation(PAGE_SIZE, first_frame=0)
        second = space.record_allocation(PAGE_SIZE, first_frame=1)
        assert second.virtual_address >= first.virtual_address + PAGE_SIZE

    def test_remove_allocation_unmaps(self):
        space = AddressSpace(1)
        allocation = space.record_allocation(PAGE_SIZE, first_frame=0)
        space.remove_allocation(allocation.virtual_address)
        assert space.allocation_containing(allocation.virtual_address) is None
        with pytest.raises(KeyError):
            space.remove_allocation(allocation.virtual_address)


class TestAllocator:
    def test_malloc_and_free(self, allocator, dram):
        allocation = allocator.malloc(context_id=1, size_bytes=10_000)
        assert dram.allocated_bytes == allocation.num_pages * PAGE_SIZE
        assert allocator.owns(1, allocation.virtual_address)
        allocator.free(1, allocation.virtual_address)
        assert dram.allocated_bytes == 0
        assert not allocator.owns(1, allocation.virtual_address)

    def test_isolation_between_contexts(self, allocator):
        a = allocator.malloc(context_id=1, size_bytes=PAGE_SIZE)
        b = allocator.malloc(context_id=2, size_bytes=PAGE_SIZE)
        # Different contexts never share physical frames, even when their
        # (per-context) virtual addresses coincide.
        assert a.first_frame != b.first_frame
        assert allocator.frame_owner(a.first_frame) == 1
        assert allocator.frame_owner(b.first_frame) == 2
        physical_a = allocator.address_space(1).translate(a.virtual_address)
        physical_b = allocator.address_space(2).translate(b.virtual_address)
        assert physical_a != physical_b

    def test_out_of_memory_raises_allocation_error(self, allocator, gpu_config):
        with pytest.raises(AllocationError):
            allocator.malloc(1, gpu_config.dram_capacity_bytes + PAGE_SIZE)

    def test_destroy_address_space_releases_everything(self, allocator, dram):
        for _ in range(3):
            allocator.malloc(context_id=7, size_bytes=PAGE_SIZE * 2)
        allocator.destroy_address_space(7)
        assert dram.allocated_bytes == 0

    def test_invalid_sizes_rejected(self, allocator):
        with pytest.raises(ValueError):
            allocator.malloc(1, 0)

    def test_large_malloc_keeps_no_per_page_state(self, allocator):
        # One GiB is 262,144 pages: per-page bookkeeping would take megabytes.
        tracemalloc.start()
        try:
            allocator.malloc(1, 1 << 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


CONTEXTS = (1, 2, 3)
_malloc = st.tuples(st.just("malloc"), st.sampled_from(CONTEXTS), st.integers(1, 3 * PAGE_SIZE))
_free = st.tuples(st.just("free"), st.sampled_from(CONTEXTS), st.integers(0, 7))
_destroy = st.tuples(st.just("destroy"), st.sampled_from(CONTEXTS), st.just(0))
# malloc is listed twice so that address spaces tend to grow between frees.
MEMORY_OPS = st.lists(st.one_of(_malloc, _malloc, _free, _destroy), max_size=24)


@settings(max_examples=60, deadline=None)
@given(ops=MEMORY_OPS)
def test_range_lookups_match_a_per_page_model(ops):
    """Random malloc/free/destroy sequences against a brute-force page model.

    The model maps every virtual page and frame explicitly; after each step
    the allocator's range lookups must agree with it at every page either
    has ever used, and no frame may belong to two live allocations.
    """
    dram = DRAMModel(GPUConfig())
    allocator = GPUMemoryAllocator(dram)
    pages = {ctx: {} for ctx in CONTEXTS}  # ctx -> virtual page -> frame
    owner = {}  # live frame -> ctx
    live = {ctx: [] for ctx in CONTEXTS}  # ctx -> live allocations, oldest first
    probes = {ctx: set() for ctx in CONTEXTS}  # ctx -> virtual pages to check
    frames_used = 0

    def forget(ctx, allocation):
        first_page = allocation.virtual_address // PAGE_SIZE
        for i in range(allocation.num_pages):
            del pages[ctx][first_page + i]
            del owner[allocation.first_frame + i]

    for kind, ctx, arg in ops:
        if kind == "malloc":
            allocation = allocator.malloc(ctx, arg)
            assert allocation.num_pages == -(-arg // PAGE_SIZE)
            first_page = allocation.virtual_address // PAGE_SIZE
            for i in range(allocation.num_pages):
                assert first_page + i not in pages[ctx]
                assert allocation.first_frame + i not in owner
                pages[ctx][first_page + i] = allocation.first_frame + i
                owner[allocation.first_frame + i] = ctx
            live[ctx].append(allocation)
            probes[ctx].update(range(first_page - 1, first_page + allocation.num_pages + 1))
            frames_used = max(frames_used, allocation.first_frame + allocation.num_pages)
        elif kind == "free" and live[ctx]:
            allocation = live[ctx].pop(arg % len(live[ctx]))
            allocator.free(ctx, allocation.virtual_address)
            forget(ctx, allocation)
        elif kind == "free":
            with pytest.raises(KeyError):
                allocator.free(ctx, AddressSpace.BASE_VIRTUAL_ADDRESS)
        else:
            allocator.destroy_address_space(ctx)
            for allocation in live[ctx]:
                forget(ctx, allocation)
            live[ctx] = []

        assert dram.allocated_bytes == len(owner) * PAGE_SIZE
        for frame in range(frames_used + 1):
            assert allocator.frame_owner(frame) == owner.get(frame)
        spaces = {ctx: allocator.address_space(ctx) for ctx in CONTEXTS}
        frame_uses = Counter(
            allocation.first_frame + i
            for space in spaces.values()
            for allocation in space.allocations()
            for i in range(allocation.num_pages)
        )
        assert set(frame_uses) == set(owner)
        assert all(uses == 1 for uses in frame_uses.values())
        for ctx, space in spaces.items():
            assert list(space.allocations()) == live[ctx]
            for page in probes[ctx]:
                frame = pages[ctx].get(page)
                for offset in (0, PAGE_SIZE - 1):
                    address = page * PAGE_SIZE + offset
                    assert allocator.owns(ctx, address) is (frame is not None)
                    if frame is None:
                        with pytest.raises(KeyError, match="page fault"):
                            space.translate(address)
                    else:
                        assert space.translate(address) == frame * PAGE_SIZE + offset
