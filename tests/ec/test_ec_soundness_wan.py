"""EC soundness on generated WANs: the distributed/EC path must reproduce
the monolithic simulation bit-for-bit (beyond the hand-built cases of
test_route_ec.py)."""

import pytest

from repro import perfopts
from repro.exec import DistributedBackend, RouteSimRequest
from repro.net.addr import Prefix
from repro.routing.simulator import simulate_routes
from repro.workload import WanParams, generate_input_routes, generate_wan


@pytest.mark.parametrize("seed", [3, 19])
def test_ec_distributed_matches_monolithic_on_wan(seed):
    model, inventory = generate_wan(
        WanParams(regions=2, cores_per_region=2, seed=seed)
    )
    routes = generate_input_routes(inventory, n_prefixes=30, redundancy=2,
                                   seed=seed + 1)

    with perfopts.configured(route_ecs=False):
        mono = simulate_routes(model, routes, include_local_inputs=False)
    loops = {Prefix.from_address(lb) for lb in model.loopbacks.values()}

    def strip(rib):
        return {
            row.identity()
            for row in rib
            if row.route.prefix not in loops
        }

    with_ecs = DistributedBackend().run_routes(
        RouteSimRequest(model=model, inputs=routes, subtasks=7)
    )
    with perfopts.configured(route_ecs=False):
        without = DistributedBackend().run_routes(
            RouteSimRequest(model=model, inputs=routes, subtasks=7)
        )

    reference = strip(mono.global_rib(best_only=True))
    assert strip(with_ecs.global_rib(best_only=True)) == reference
    assert strip(without.global_rib(best_only=True)) == reference
