"""Parsed, validated form of ``ScenarioSpec.cluster`` (the fleet section).

A scenario becomes a multi-GPU fleet run by adding a ``cluster=`` mapping
next to its ``arrivals=`` section::

    ScenarioSpec(
        ...,
        arrivals={"horizon_us": 100_000.0, ...},
        cluster={"num_gpus": 4, "router": "least_loaded",
                 "epoch_us": 5_000.0},
    )

``num_gpus`` sizes the fleet, ``router`` names the placement policy
(resolved through :data:`repro.registry.ROUTERS`, aliases accepted) with
``router_options`` passed to its factory, and ``epoch_us`` sets the
submission/completion sync interval (default: an eighth of the horizon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.registry import ROUTERS
from repro.scenario import ScenarioSpec
from repro.utils import checked_duration, checked_int

#: Keys accepted in ``ScenarioSpec.cluster`` (everything else is rejected,
#: mirroring the arrivals/scenario loaders' unknown-key policy).
_CLUSTER_KEYS = frozenset({"num_gpus", "router", "router_options", "epoch_us"})


@dataclass
class ClusterSpec:
    """One fleet: member count, routing policy and sync-epoch length."""

    #: Number of member GPUs.
    num_gpus: int
    #: Canonical router name (resolved through ``ROUTERS``).
    router: str
    #: Keyword options for the router factory (e.g. ``spill_margin``).
    router_options: Dict[str, Any]
    #: Length of one submission/completion epoch (µs) — the only points at
    #: which member GPUs synchronise with the cluster queue.
    epoch_us: float

    @classmethod
    def from_scenario(cls, scenario: ScenarioSpec) -> "ClusterSpec":
        """Parse/validate the scenario's ``cluster=`` section.

        Unknown router names raise
        :class:`~repro.registry.UnknownComponentError` (with close-match
        suggestions), like every other registry lookup.
        """
        cluster = scenario.cluster
        if cluster is None:
            raise ValueError("scenario has no cluster= section (single-GPU)")
        if scenario.arrivals is None:
            raise ValueError("cluster= fleets require an arrivals= section")
        unknown = set(cluster) - _CLUSTER_KEYS
        if unknown:
            raise ValueError(
                f"unknown cluster keys: {sorted(unknown)} "
                f"(accepted: {sorted(_CLUSTER_KEYS)})"
            )
        router = ROUTERS.canonical_name(str(cluster.get("router", "round_robin")))
        horizon_us = checked_duration(scenario.arrivals.get("horizon_us"), "horizon_us")
        return cls(
            num_gpus=checked_int(cluster.get("num_gpus", 1), "num_gpus", 1),
            router=router,
            router_options=dict(cluster.get("router_options", {})),
            epoch_us=checked_duration(cluster.get("epoch_us", horizon_us / 8.0), "epoch_us"),
        )

    def build_router(self):
        """Instantiate the routing policy."""
        return ROUTERS.create(self.router, **dict(self.router_options))


__all__ = ["ClusterSpec"]
