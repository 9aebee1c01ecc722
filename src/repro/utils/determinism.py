"""Deterministic pseudo-random helpers.

Every source of variability in the reproduction — per-thread-block execution
time jitter, random workload composition — must be reproducible from an
explicit seed so that tests, examples and benchmarks give the same answer on
every run.  Python's built-in ``hash`` is salted per process, so we use a
small, stable 64-bit mixing function instead (SplitMix64).
"""

from __future__ import annotations

import functools
from typing import Iterable, Union

_MASK64 = (1 << 64) - 1
#: SplitMix64 state before the first key component is mixed in.
_HASH_INIT = 0x853C49E6748FEA9B
#: ``2**64`` as a float: maps a 64-bit hash onto ``[0, 1)``.
_TWO64 = float(1 << 64)

Hashable = Union[int, str, float, bytes]


def _splitmix64(value: int) -> int:
    """One round of the SplitMix64 mixing function."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fold(value: Hashable) -> int:
    """Fold an arbitrary hashable input into a 64-bit integer, stably."""
    if isinstance(value, bool):  # bool is an int subclass; keep it distinct
        return int(value) + 0x9E37
    if isinstance(value, int):
        return value & _MASK64
    if isinstance(value, float):
        return hash_bytes(repr(value).encode("utf-8"))
    if isinstance(value, str):
        return hash_bytes(value.encode("utf-8"))
    if isinstance(value, bytes):
        return hash_bytes(value)
    raise TypeError(f"unsupported key component type: {type(value)!r}")


@functools.lru_cache(maxsize=1024)
def _fold_str(value: str) -> int:
    """:func:`_fold` of an exact ``str``, memoized.

    Keys reuse a small vocabulary (namespaces, kernel names, draw labels),
    so each string is FNV-folded once instead of once per draw.
    """
    return hash_bytes(value.encode("utf-8"))


def hash_bytes(data: bytes) -> int:
    """A stable 64-bit FNV-1a hash of a byte string."""
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & _MASK64
    return value


def _mix(state: int, components: Iterable[Hashable]) -> int:
    """Mix ``components`` into a SplitMix64 ``state``, one round each."""
    for component in components:
        # Exact-type fast paths; bool, subclasses, float and bytes take _fold.
        kind = type(component)
        if kind is int:
            value = component & _MASK64
        elif kind is str:
            value = _fold_str(component)
        else:
            value = _fold(component)
        state = _splitmix64(state ^ value)
    return state


def stable_hash(*components: Hashable) -> int:
    """Mix an arbitrary tuple of components into a stable 64-bit value."""
    return _mix(_HASH_INIT, components)


def hash_uniform(*components: Hashable) -> float:
    """Return a deterministic uniform sample in ``[0, 1)`` for the key."""
    return stable_hash(*components) / _TWO64


class DeterministicJitter:
    """Deterministic multiplicative jitter around 1.0.

    ``factor(key...)`` returns a value in ``[1 - spread, 1 + spread]`` with
    mean 1.0, derived only from the seed and the key components.  It is used
    to give individual thread blocks of a kernel slightly different execution
    times, which the draining preemption mechanism is sensitive to
    (paper Sec. 4.3).
    """

    def __init__(self, seed: int, spread: float):
        if spread < 0 or spread >= 1:
            raise ValueError("spread must be in [0, 1)")
        self._seed = seed
        self._spread = spread

    @property
    def spread(self) -> float:
        """Half-width of the jitter interval around 1.0."""
        return self._spread

    def factor(self, *key: Hashable) -> float:
        """Multiplicative factor in ``[1-spread, 1+spread]`` for ``key``."""
        if self._spread == 0.0:
            return 1.0
        u = hash_uniform(self._seed, *key)
        return 1.0 + self._spread * (2.0 * u - 1.0)

    def scaled(self, base: float, *key: Hashable) -> float:
        """Apply the jitter factor for ``key`` to ``base``."""
        return base * self.factor(*key)

    def prefix(self, *key: Hashable) -> int:
        """The hash state after the seed and ``key``, for :meth:`scaled_at`.

        A kernel launch hashes its fixed key part (qualified name, launch
        id) once and finishes each block index in one SplitMix round.
        """
        return _mix(_HASH_INIT, (self._seed, *key))

    def scaled_at(self, base: float, prefix: int, index: int) -> float:
        """``scaled(base, *key, index)`` bit for bit, given ``prefix(*key)``.

        ``index`` must be an exact ``int`` (a ``bool`` folds differently).
        With zero spread the factor is exactly 1.0, as in :meth:`factor`.
        """
        u = _splitmix64(prefix ^ (index & _MASK64)) / _TWO64
        return base * (1.0 + self._spread * (2.0 * u - 1.0))


def weighted_choice(weights: Iterable[float], u: float) -> int:
    """Pick an index from ``weights`` proportionally, using uniform ``u``.

    Utility for seeded categorical draws (workload composition).
    """
    weights = list(weights)
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    if not 0.0 <= u < 1.0:
        raise ValueError("u must be in [0, 1)")
    threshold = u * total
    acc = 0.0
    for index, weight in enumerate(weights):
        acc += weight
        if threshold < acc:
            return index
    return len(weights) - 1
