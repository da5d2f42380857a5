"""Seed-sweep determinism: repeated runs must be byte-identical.

Guards the PR-1 hot-path optimizations (route interning, policy caches,
prefix tries) under randomized workloads: for each workload seed, running
the medium-WAN distributed route simulation twice — with racing worker
threads — must produce byte-identical merged RIBs.
"""

import pytest

from repro.distsim import DistributedRouteSimulation, rib_fingerprint
from repro.workload import WanParams, generate_input_routes, generate_wan

SEEDS = [3, 5, 7, 11, 13]


def _workload(seed):
    model, inventory = generate_wan(
        WanParams(regions=2, cores_per_region=2, seed=seed)
    )
    routes = generate_input_routes(
        inventory, n_prefixes=30, redundancy=2, seed=seed + 1
    )
    return model, routes


@pytest.mark.parametrize("seed", SEEDS)
def test_route_sim_byte_identical_across_runs(seed):
    model, routes = _workload(seed)
    fingerprints = {
        rib_fingerprint(
            DistributedRouteSimulation(model)
            .run(routes, subtasks=4, workers=3)
            .device_ribs
        )
        for _ in range(2)
    }
    assert len(fingerprints) == 1
