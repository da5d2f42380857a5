"""§3.1's equivalence-class claims and the EC on/off ablation.

The paper: route ECs cut the simulated input routes ~4x on the WAN; flow
ECs cut the simulated flows by roughly two orders of magnitude. The
benchmark measures both reduction factors on the synthetic WAN and runs the
with/without-EC ablation to show the technique actually buys time without
changing results.
"""

import time

import pytest

from repro import perfopts
from repro.exec import DistributedBackend, RouteSimRequest
from repro.ec import compute_prefix_group_ecs, compute_route_ecs, compute_flow_ecs
from repro.ec.flow_ec import build_prefix_universe
from repro.routing.simulator import simulate_routes
from repro.traffic.simulator import TrafficSimulator
from repro.workload import generate_flows, generate_input_routes


def test_route_ec_reduction(wan_world, record, benchmark):
    model, inventory, _, _ = wan_world
    # Denser inputs: many prefixes share injection points and attributes.
    routes = generate_input_routes(inventory, n_prefixes=400, redundancy=2, seed=31)

    index = benchmark(lambda: compute_route_ecs(model, routes))
    group_index = compute_prefix_group_ecs(model, routes)

    rows = [
        f"input routes:            {index.total_routes}",
        f"route ECs:               {len(index.classes)}",
        f"route EC reduction:      {index.reduction_factor:.1f}x (paper: ~4x)",
        f"prefix groups:           {group_index.total_groups}",
        f"prefix-group ECs:        {len(group_index.classes)}",
        f"group reduction:         {group_index.reduction_factor:.1f}x",
    ]
    record("ec_route_reduction", "\n".join(rows))

    # Shape: a multi-x reduction, in the ~4x ballpark.
    assert index.reduction_factor >= 2.0


def test_flow_ec_reduction(wan_world, record, benchmark):
    model, inventory, routes, _ = wan_world
    # Production-shaped flow density: many flows per (ingress, destination
    # atom) pair — NetFlow sees millions of 5-tuples towards the same
    # prefixes. Concentrate the ingress points like real DC exits do.
    from dataclasses import replace

    dense_inventory = replace(
        inventory,
        dc_edges=inventory.dc_edges[:2],
        borders=inventory.borders[:1],
    )
    flows = generate_flows(dense_inventory, routes, n_flows=10000, seed=33)
    result = simulate_routes(model, routes)
    universe = build_prefix_universe(result.device_ribs.values())

    index = benchmark(lambda: compute_flow_ecs(flows, universe, model=model))
    rows = [
        f"input flows:        {index.total_flows}",
        f"flow ECs:           {len(index.classes)}",
        f"flow EC reduction:  {index.reduction_factor:.1f}x "
        f"(paper: ~two orders of magnitude)",
    ]
    record("ec_flow_reduction", "\n".join(rows))
    # Shape: at least an order of magnitude at this scale (the paper's two
    # orders come from 10^9 production flows over the same atom count).
    assert index.reduction_factor >= 10.0


def test_ec_ablation_runtime_and_equivalence(wan_world, record, benchmark):
    model, _, routes, flows = wan_world

    def run(use_ecs: bool):
        backend = DistributedBackend()
        started = time.perf_counter()
        with perfopts.configured(route_ecs=use_ecs):
            result = backend.run_routes(
                RouteSimRequest(model=model, inputs=routes, subtasks=10)
            )
        route_seconds = time.perf_counter() - started

        started = time.perf_counter()
        traffic = TrafficSimulator(
            model, result.device_ribs, igp=result.igp, use_ecs=use_ecs
        ).simulate(flows)
        traffic_seconds = time.perf_counter() - started
        return result, traffic, route_seconds, traffic_seconds

    with_ecs = benchmark.pedantic(lambda: run(True), rounds=1, iterations=1)
    without = run(False)

    rows = [
        f"{'':22s} {'with ECs':>10s} {'without':>10s}",
        f"{'route sim (s)':22s} {with_ecs[2]:10.2f} {without[2]:10.2f}",
        f"{'traffic sim (s)':22s} {with_ecs[3]:10.2f} {without[3]:10.2f}",
    ]
    record("ec_ablation", "\n".join(rows))

    # Same results either way...
    assert with_ecs[0].global_rib(best_only=True) == without[0].global_rib(
        best_only=True
    )
    for key in set(with_ecs[1].loads.loads) | set(without[1].loads.loads):
        assert with_ecs[1].loads.loads.get(key, 0.0) == pytest.approx(
            without[1].loads.loads.get(key, 0.0), rel=1e-9
        )
    # ...and the flow ECs make traffic simulation faster.
    assert with_ecs[3] < without[3]
