"""Cross-path stream oracle: the serving driver and the fleet draw the same requests.

Both open loops take their requests from :class:`repro.serving.driver.TenantStream`
cursors.  For one scenario, each tenant's request sequence (tenant index,
kernel, priority, arrival time) must therefore be the same whether the
serving driver offers it (seen through ``on_request_arrived``), unsplit or
resumed across checkpoints, or the fleet takes it epoch by epoch
(``GPUFleet._arrivals_until``) with one epoch or eight.  Request ids are left
out: same-instant arrivals of different tenants may be numbered in a
different order.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict

import pytest

from repro.cluster import GPUFleet
from repro.serving.driver import ServingDriver, ServingSpec
from repro.sim.observers import BaseObserver
from repro.workloads.synthetic import generate_synthetic_scenario

#: (seed, dimension): open-loop seeds draw poisson, mmpp, lognormal and
#: pareto tenants; trace-driven seeds replay non-wrapping gap lists.
CASES = [(seed, "open_loop") for seed in (3, 4, 5, 11, 29)] + [
    (seed, "trace_driven") for seed in (2, 9)
]


def _scenario(seed: int, dimension: str):
    return generate_synthetic_scenario(seed, scale="smoke", **{dimension: True})


def _per_tenant(requests):
    """``{tenant: [(tenant index, kernel, priority, arrival), ...]}``."""
    sequences = defaultdict(list)
    for request in requests:
        sequences[request.tenant].append(
            (request.tenant_index, request.kernel, request.priority, request.arrival_us)
        )
    return dict(sequences)


class _Arrivals(BaseObserver):
    def __init__(self):
        self.requests = []

    def on_request_arrived(self, request, now) -> None:
        self.requests.append(request)


def _serving_requests(scenario, checkpoint_at=()):
    """Every request the serving driver offers, across checkpoint segments."""
    requests = []
    state = None
    for bound in [*checkpoint_at, None]:
        driver = ServingDriver(scenario, checkpoint=state)
        arrivals = _Arrivals()
        driver.system.install_observer(arrivals)
        driver.run(quiesce_at_us=bound)
        requests.extend(arrivals.requests)
        state = json.loads(json.dumps(driver.checkpoint()))
    return requests


def _fleet_requests(scenario, epochs: int):
    """Every request the fleet takes from its streams over ``epochs`` epochs."""
    horizon_us = ServingSpec.from_scenario(scenario).horizon_us
    cluster = {"num_gpus": 2, "router": "round_robin", "epoch_us": horizon_us / epochs}
    fleet = GPUFleet(dataclasses.replace(scenario, cluster=cluster))
    requests = []
    for epoch in range(1, epochs + 1):
        requests.extend(fleet._arrivals_until(horizon_us * epoch / epochs))
    return requests


def test_cases_cover_every_arrival_process():
    kinds = set()
    for seed, dimension in CASES:
        for tenant in _scenario(seed, dimension).arrivals["tenants"]:
            if tenant["process"] == "replay":
                assert tenant["wrap"] is False
            kinds.add(tenant["process"])
    assert kinds == {"poisson", "mmpp", "lognormal", "pareto", "replay"}


@pytest.mark.parametrize("seed,dimension", CASES)
def test_serving_and_fleet_draw_the_same_tenant_streams(seed, dimension):
    scenario = _scenario(seed, dimension)
    horizon_us = ServingSpec.from_scenario(scenario).horizon_us
    serving = _per_tenant(_serving_requests(scenario))
    assert sum(map(len, serving.values())) > 0
    split = _per_tenant(_serving_requests(scenario, (horizon_us / 3, 2 * horizon_us / 3)))
    assert split == serving
    for epochs in (1, 8):
        assert _per_tenant(_fleet_requests(scenario, epochs)) == serving, f"{epochs} epochs"
