"""Small shared utilities (deterministic pseudo-randomness, formatting,
checked spec values and checkpoint counts)."""

import math
from typing import Any, Mapping, Optional

from repro.utils.determinism import DeterministicJitter, hash_uniform, stable_hash
from repro.utils.tables import format_table


def checked_int(value: Any, key: str, minimum: Optional[int] = None) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) of at least ``minimum``;
    anything else raises a :class:`ValueError` naming ``key``."""
    if type(value) is not int or (minimum is not None and value < minimum):
        kind = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise ValueError(f"{key} must be {kind}, not {value!r}")
    return value


def checked_duration(value: Any, key: str) -> float:
    """``value`` as a ``float`` if it is a finite, positive ``int`` or
    ``float``; anything else raises a :class:`ValueError` naming ``key``."""
    if type(value) not in (int, float) or not 0 < value < math.inf:
        raise ValueError(f"{key} must be a finite positive number, not {value!r}")
    return float(value)


def restored_count(state: Mapping[str, Any], key: str) -> int:
    """``state[key]`` as a restored cursor or count: an ``int`` (not a
    ``bool``) that is at least 0; anything else raises a :class:`ValueError`
    naming ``key``."""
    value = state[key]
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} must be a non-negative integer, not {value!r}")
    return value


__all__ = [
    "DeterministicJitter",
    "hash_uniform",
    "stable_hash",
    "format_table",
    "checked_int",
    "checked_duration",
    "restored_count",
]
