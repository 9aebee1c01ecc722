"""Tests for the deterministic pseudo-random helpers."""

from __future__ import annotations

import enum

import pytest
from hypothesis import given, strategies as st

from repro.gpu.kernel import KernelLaunch, KernelSpec
from repro.gpu.resources import ResourceUsage
from repro.utils.determinism import (
    DeterministicJitter,
    _fold_str,
    hash_uniform,
    stable_hash,
    weighted_choice,
)

_MASK = (1 << 64) - 1


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**63 + 5


class _Name(str):
    pass


def _reference_fold(value) -> int:
    """The component fold, written out: bool tagged, int masked, rest FNV-1a."""
    if isinstance(value, bool):
        return int(value) + 0x9E37
    if isinstance(value, int):
        return value & _MASK
    if isinstance(value, float):
        data = repr(value).encode("utf-8")
    elif isinstance(value, str):
        data = value.encode("utf-8")
    else:
        data = value
    folded = 0xCBF29CE484222325
    for byte in data:
        folded = ((folded ^ byte) * 0x100000001B3) & _MASK
    return folded


def _reference_hash(*components) -> int:
    """Fold each component, then one SplitMix64 round per component."""
    state = 0x853C49E6748FEA9B
    for component in components:
        z = ((state ^ _reference_fold(component)) + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        state = z ^ (z >> 31)
    return state


_components = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.booleans(),
    st.sampled_from(list(_Level)),
    st.text(),
    st.text(alphabet="äßé漢字🙂", min_size=1),
    st.text().map(_Name),
    st.floats(),
    st.binary(),
)


class TestStableHash:
    def test_same_inputs_same_hash(self):
        assert stable_hash("kernel", 3, 7) == stable_hash("kernel", 3, 7)

    def test_different_inputs_different_hash(self):
        assert stable_hash("a") != stable_hash("b")
        assert stable_hash(1, 2) != stable_hash(2, 1)

    def test_known_value_is_stable_across_runs(self):
        # Pinned values: guard against accidental algorithm changes that
        # would silently change every "random" draw in the repository.
        assert stable_hash("repro", 2014) == 0xAFD808DC814D1885
        assert stable_hash("repro.synthetic", 3, 1, 0, "blocks") == 0xE64B60AF0DB24145
        assert stable_hash(True, 1.5, b"x", -7) == 0xB872C00493B18F8E
        assert DeterministicJitter(7, 0.15).scaled(10.0, "parboil.k0", 42, 3) == 8.799960807875852

    def test_bool_distinct_from_int(self):
        assert stable_hash(True) != stable_hash(1)

    @given(st.lists(_components, max_size=6))
    def test_matches_the_reference_fold_and_mix(self, components):
        assert stable_hash(*components) == _reference_hash(*components)

    @given(st.booleans(), st.lists(_components, max_size=3))
    def test_bool_stays_distinct_from_int_in_any_key(self, flag, rest):
        assert stable_hash(flag, *rest) != stable_hash(int(flag), *rest)

    def test_string_memo_is_bounded(self):
        assert _fold_str.cache_info().maxsize is not None

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(object())  # type: ignore[arg-type]

    @given(st.lists(st.one_of(st.integers(), st.text(), st.floats(allow_nan=False)), max_size=5))
    def test_hash_uniform_in_unit_interval(self, components):
        value = hash_uniform(*components) if components else hash_uniform(0)
        assert 0.0 <= value < 1.0


class TestDeterministicJitter:
    def test_zero_spread_returns_exactly_one(self):
        jitter = DeterministicJitter(seed=1, spread=0.0)
        assert jitter.factor("k", 1) == 1.0

    def test_factor_is_deterministic(self):
        jitter = DeterministicJitter(seed=42, spread=0.2)
        assert jitter.factor("k", 5) == jitter.factor("k", 5)

    def test_different_seeds_give_different_factors(self):
        a = DeterministicJitter(seed=1, spread=0.2)
        b = DeterministicJitter(seed=2, spread=0.2)
        factors_a = [a.factor("k", i) for i in range(10)]
        factors_b = [b.factor("k", i) for i in range(10)]
        assert factors_a != factors_b

    @given(st.integers(min_value=0, max_value=10_000))
    def test_factor_within_spread(self, key):
        jitter = DeterministicJitter(seed=7, spread=0.15)
        factor = jitter.factor("kernel", key)
        assert 0.85 <= factor <= 1.15

    def test_mean_close_to_one(self):
        jitter = DeterministicJitter(seed=3, spread=0.15)
        factors = [jitter.factor("kernel", i) for i in range(2000)]
        assert sum(factors) / len(factors) == pytest.approx(1.0, abs=0.01)

    def test_scaled_applies_factor(self):
        jitter = DeterministicJitter(seed=3, spread=0.15)
        assert jitter.scaled(10.0, "k", 1) == pytest.approx(10.0 * jitter.factor("k", 1))

    @given(
        st.integers(),
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=1e-3, max_value=1e6),
        st.one_of(st.text(), st.text().map(_Name)),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_prefix_path_matches_scaled_bit_for_bit(
        self, seed, spread, base, qualified, launch_id, index
    ):
        jitter = DeterministicJitter(seed, spread)
        prefix = jitter.prefix(qualified, launch_id)
        expected = jitter.scaled(base, qualified, launch_id, index)
        assert jitter.scaled_at(base, prefix, index).hex() == expected.hex()

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=2**40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=40),
    )
    def test_jittered_launch_times_match_scaled(self, seed, launch_id, blocks, first_take):
        spec = KernelSpec(
            name="k0", benchmark="parboil", num_thread_blocks=blocks, avg_tb_time_us=3.7,
            usage=ResourceUsage(registers_per_block=1, shared_memory_per_block=0),
        )
        jitter = DeterministicJitter(seed, 0.15)
        launch = KernelLaunch(spec=spec, launch_id=launch_id, context_id=1, jitter=jitter)
        # The launch hashes its key prefix on first issue, not when built.
        assert "_jitter_prefix" not in vars(launch)
        expected = [jitter.scaled(3.7, "parboil.k0", launch_id, i) for i in range(blocks)]
        taken = launch.take_fresh_blocks(first_take) + launch.take_fresh_blocks(blocks)
        assert [block.execution_time_us for block in taken] == expected
        assert [launch.block_execution_time(i) for i in range(blocks)] == expected

    def test_invalid_spread_rejected(self):
        with pytest.raises(ValueError):
            DeterministicJitter(seed=1, spread=1.0)
        with pytest.raises(ValueError):
            DeterministicJitter(seed=1, spread=-0.1)


class TestWeightedChoice:
    def test_single_weight(self):
        assert weighted_choice([1.0], 0.5) == 0

    def test_boundaries(self):
        weights = [1.0, 1.0]
        assert weighted_choice(weights, 0.0) == 0
        assert weighted_choice(weights, 0.49) == 0
        assert weighted_choice(weights, 0.51) == 1

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice([0.0, 0.0], 0.5)

    def test_u_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice([1.0], 1.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=10),
        st.floats(min_value=0.0, max_value=0.999999),
    )
    def test_always_returns_valid_index(self, weights, u):
        index = weighted_choice(weights, u)
        assert 0 <= index < len(weights)
