"""Small shared utilities (deterministic pseudo-randomness, formatting,
checkpoint counts)."""

from typing import Any, Mapping

from repro.utils.determinism import DeterministicJitter, hash_uniform, stable_hash
from repro.utils.tables import format_table


def restored_count(state: Mapping[str, Any], key: str) -> int:
    """``state[key]`` as a restored cursor or count: an ``int`` (not a
    ``bool``) that is at least 0; anything else raises a :class:`ValueError`
    naming ``key``."""
    value = state[key]
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} must be a non-negative integer, not {value!r}")
    return value


__all__ = ["DeterministicJitter", "hash_uniform", "stable_hash", "format_table", "restored_count"]
