"""The flow-EC prefix universe read from the RIBs' FIB indexes equals the
union of every prefix some device and VRF holds a best/ECMP route for."""

import pytest

from repro.ec.flow_ec import build_prefix_universe, compute_flow_ecs
from repro.net.addr import IPAddress, Prefix
from repro.net.trie import PrefixTrie
from repro.routing.rib import ROUTE_TYPE_CANDIDATE
from repro.routing.simulator import simulate_routes
from repro.workload import (
    WanParams,
    generate_flows,
    generate_input_routes,
    generate_wan,
)


def routes_for_universe(ribs):
    """The universe as a filter of every slot through ``routes_for``."""
    universe = PrefixTrie()
    seen = set()
    for rib in ribs:
        for vrf in rib.vrfs:
            for prefix in rib.prefixes(vrf):
                if rib.routes_for(prefix, vrf) and prefix not in seen:
                    seen.add(prefix)
                    universe.insert(prefix, True)
    return universe


@pytest.mark.parametrize("seed", [3, 7])
def test_universe_equals_routes_for_definition(seed):
    model, inventory = generate_wan(
        WanParams(regions=2, cores_per_region=2, seed=seed)
    )
    routes = generate_input_routes(inventory, n_prefixes=40, seed=seed + 1)
    ribs = list(simulate_routes(model, routes).device_ribs.values())
    flows = generate_flows(inventory, routes, n_flows=120, seed=seed + 2)

    # A slot holding only a candidate must stay out of the universe, and
    # a candidate beside best rows changes nothing.
    template = next(
        route
        for prefix in ribs[1].prefixes()
        for route in ribs[1].routes_for(prefix)
    )
    ribs[0].install(
        template.with_prefix(Prefix.parse("198.51.100.0/24")),
        route_type=ROUTE_TYPE_CANDIDATE,
    )
    ribs[1].install(template, route_type=ROUTE_TYPE_CANDIDATE)
    got = build_prefix_universe(ribs)
    expected = routes_for_universe(ribs)
    assert len(got) == len(expected)
    # Equal sizes plus equal covering sets at every slot's first address
    # mean equal prefix sets.
    for rib in ribs:
        for vrf in rib.vrfs:
            for prefix in rib.prefixes(vrf):
                probe = prefix.first_address
                assert got.all_matches(probe) == expected.all_matches(probe)
    assert got.all_matches(IPAddress.parse("198.51.100.1")) == []
    assert [ec.members for ec in compute_flow_ecs(flows, got, model).classes] == [
        ec.members for ec in compute_flow_ecs(flows, expected, model).classes
    ]
