"""Optimization soundness: caches/interning and process workers are invisible.

Every optimization layer behind ``repro.perfopts`` — and the process-mode
execution path of the distributed framework — must be semantically
transparent: the same seeded workload must produce byte-identical RIBs and
statistics whether the optimizations are on or off, and whether subtasks run
in threads or processes.
"""

from __future__ import annotations

import random

import pytest

from repro import perfopts
from repro.distsim.master import makespan
from repro.distsim.worker import WorkerConfig
from repro.exec import DistributedBackend, RouteSimRequest, TrafficSimRequest
from repro.routing.simulator import simulate_routes
from repro.workload.flows import generate_flows
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


def _merged_rib_signature(result):
    return sorted(map(repr, result.global_rib().identity_set()))


def test_thread_and_process_workers_identical():
    model, inventory, inputs = _wan(seed=5)

    threads = DistributedBackend(mode="thread")
    by_threads = threads.run_routes(
        RouteSimRequest(model=model, inputs=inputs, subtasks=6, workers=2)
    )
    processes = DistributedBackend(mode="process")
    by_processes = processes.run_routes(
        RouteSimRequest(model=model, inputs=inputs, subtasks=6, workers=2)
    )
    assert _merged_rib_signature(by_threads) == _merged_rib_signature(by_processes)

    flows = generate_flows(inventory, inputs, n_flows=25, seed=5)
    loads_threads = threads.run_traffic(
        TrafficSimRequest(
            model=model, flows=flows, route_outcome=by_threads,
            subtasks=4, workers=2,
        )
    )
    loads_processes = processes.run_traffic(
        TrafficSimRequest(
            model=model, flows=flows, route_outcome=by_processes,
            subtasks=4, workers=2,
        )
    )
    assert loads_threads.loads.loads == loads_processes.loads.loads
    assert loads_threads.paths == loads_processes.paths
    assert (
        loads_threads.loaded_rib_fractions == loads_processes.loaded_rib_fractions
    )


def _fail_first_attempt(message) -> bool:
    return message.attempt == 1


def test_process_mode_retries_failed_subtasks():
    model, _, inputs = _wan(seed=13, n_prefixes=20)
    backend = DistributedBackend(
        mode="process",
        worker_config=WorkerConfig(failure_hook=_fail_first_attempt),
    )
    outcome = backend.run_routes(
        RouteSimRequest(model=model, inputs=inputs, subtasks=3, workers=1)
    )
    assert outcome.device_ribs
    assert all(r.attempts == 2 for r in outcome.task.db.all(kind="route"))


def test_process_mode_rejects_unpicklable_hook():
    model, _, inputs = _wan(seed=13, n_prefixes=10)
    backend = DistributedBackend(
        mode="process",
        worker_config=WorkerConfig(failure_hook=lambda message: False),
    )
    with pytest.raises(ValueError, match="picklable"):
        backend.run_routes(
            RouteSimRequest(model=model, inputs=inputs, subtasks=2, workers=1)
        )


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
