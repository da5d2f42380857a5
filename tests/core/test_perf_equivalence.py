"""Optimization soundness: caches and interning are invisible.

Every optimization layer behind ``repro.perfopts`` must be semantically
transparent: the same seeded workload must produce byte-identical RIBs and
statistics whether the optimizations are on or off.
"""

from __future__ import annotations

import random

import pytest

from repro import perfopts
from repro.distsim.master import makespan
from repro.routing.simulator import simulate_routes
from repro.workload.routes import generate_input_routes
from repro.workload.wan import WanParams, generate_wan


def _wan(regions: int = 2, seed: int = 11, n_prefixes: int = 40):
    model, inventory = generate_wan(WanParams(regions=regions, seed=seed))
    inputs = generate_input_routes(inventory, n_prefixes=n_prefixes, seed=seed)
    return model, inventory, inputs


def _signature(result):
    """Full observable identity of a simulation result (timing excluded)."""
    stats = result.bgp.stats
    return (
        sorted(map(repr, result.global_rib().identity_set())),
        stats.messages,
        stats.rounds,
        stats.converged,
        sorted((repr(p), n) for p, n in stats.prefix_messages.items()),
    )


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_route_sim_identical_with_and_without_caches(seed):
    model, _, inputs = _wan(seed=seed)
    # ``route_ecs`` is the one flag that is transparent on RIBs only: it
    # shrinks the fixpoint, so message/round statistics are compared with
    # it off on both sides and the RIB rows with everything on.
    with perfopts.configured(route_ecs=False):
        optimized = _signature(simulate_routes(model, inputs))
    with perfopts.all_disabled():
        baseline = _signature(simulate_routes(model, inputs))
    assert optimized == baseline
    assert _signature(simulate_routes(model, inputs))[0] == baseline[0]


def test_each_flag_is_individually_transparent():
    model, _, inputs = _wan(seed=7)
    reference = _signature(simulate_routes(model, inputs))
    with perfopts.configured(route_ecs=False):
        raw = simulate_routes(model, inputs)
    assert raw.route_ecs is None
    assert _signature(raw)[0] == reference[0]
    for flag in ("intern_parse", "intern_routes"):
        with perfopts.configured(**{flag: False}):
            assert _signature(simulate_routes(model, inputs)) == reference, flag


def _naive_makespan(durations, servers):
    free_at = [0.0] * servers
    for duration in durations:
        earliest = min(range(servers), key=lambda i: free_at[i])
        free_at[earliest] += duration
    return max(free_at) if durations else 0.0


def test_heap_makespan_matches_naive_model():
    rng = random.Random(42)
    for _ in range(50):
        durations = [rng.uniform(0.1, 5.0) for _ in range(rng.randint(0, 40))]
        servers = rng.randint(1, 12)
        assert makespan(durations, servers) == pytest.approx(
            _naive_makespan(durations, servers)
        )
    assert makespan([], 4) == 0.0
    assert makespan([2.5], 1) == 2.5
    with pytest.raises(ValueError):
        makespan([1.0], 0)
