"""§6.2 fault-tolerance checking: the k-failure verification capability.

Hoyan's k-failure checking found ~5 real fault-tolerance problems caused by
misconfiguration, topology design flaws, and unexpected maintenance. The
benchmark measures scenario throughput on the WAN and demonstrates a
planted single-point-of-failure being found at k=1 while the healthy design
tolerates any single failure.
"""

import pytest

from repro.kfailure import KFailureEngine, reachability_property
from repro.workload import generate_input_routes


def test_kfailure_sweep(wan_world, record, benchmark):
    model, inventory, _, _ = wan_world
    routes = generate_input_routes(inventory, n_prefixes=20, redundancy=2, seed=5)
    dc_prefix = next(
        str(r.route.prefix) for r in routes if r.router in inventory.dc_edges
    )
    prop = reachability_property(dc_prefix, inventory.borders[:2])

    engine = KFailureEngine(model, routes, max_scenarios=60)
    result = benchmark.pedantic(lambda: engine.check(1, prop), rounds=1, iterations=1)

    throughput = result.scenarios_checked / max(result.elapsed_seconds, 1e-9)
    rows = [
        f"k=1 scenarios checked: {result.scenarios_checked}"
        + (" (truncated)" if result.truncated else ""),
        f"violations: {len(result.violations)}",
        f"throughput: {throughput:.1f} scenarios/s",
    ]

    # Planted flaw: remove the redundancy in front of a DC edge, leaving a
    # single uplink whose failure strands the DC routes. Non-redundant
    # announcements (each prefix injected once) make the edge the prefix's
    # sole origin; the edge comes from the actual injector set.
    flawed_routes = generate_input_routes(
        inventory, n_prefixes=20, redundancy=1, seed=6
    )
    edge, edge_prefix = next(
        (r.router, str(r.route.prefix))
        for r in flawed_routes
        if r.router in inventory.dc_edges
    )
    flawed = model.copy()
    uplinks = flawed.topology.links_of(edge)
    for link in uplinks[1:]:
        flawed.topology.remove_link(link)
    flawed_engine = KFailureEngine(flawed, flawed_routes, max_scenarios=200)
    flawed_result = flawed_engine.check(
        1, reachability_property(edge_prefix, inventory.borders[:2])
    )
    rows.append(
        f"planted single-uplink flaw: {len(flawed_result.violations)} "
        f"violating scenario(s) found at k=1"
    )
    record("kfailure", "\n".join(rows))

    assert result.ok  # the generated WAN tolerates any single failure
    assert not flawed_result.ok  # the planted flaw is found
