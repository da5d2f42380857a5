"""Tests for the partitioning strategies, including the Figure 4 example."""

import time

from repro.distsim.partition import (
    BalancedPartitioner,
    OrderingPartitioner,
    RandomPartitioner,
    ranges_of_prefixes,
)
from repro.routing.inputs import inject_external_route
from repro.traffic.flow import make_flow


def figure4_routes():
    """The example input routes of Figure 4 (named r1..r6)."""
    specs = {
        "r1": "10.0.0.0/24",
        "r2": "10.0.1.0/24",
        "r3": "30.0.1.0/24",
        "r4": "30.0.0.0/24",
        "r5": "40.0.0.0/24",
        "r6": "20.0.0.0/8",
    }
    routes = {}
    for name, prefix in specs.items():
        routes[name] = inject_external_route("B", prefix, (65010,))
    return routes


def figure4_flows():
    """Flows f1..f6 with the destination addresses of the Figure 4 walkthrough."""
    dsts = {
        "f1": "10.0.1.5",
        "f2": "20.0.0.2",
        "f3": "30.0.0.1",
        "f4": "10.0.0.1",
        "f5": "30.0.1.9",
        "f6": "40.0.0.1",
    }
    return {name: make_flow("A", "192.168.0.1", dst) for name, dst in dsts.items()}


class TestOrderingHeuristic:
    def test_figure4_route_split(self):
        routes = figure4_routes()
        chunks = OrderingPartitioner().split_routes(list(routes.values()), 2)
        names = [
            [k for k, v in routes.items() if v in chunk] for chunk in chunks
        ]
        assert names == [["r1", "r2", "r6"], ["r3", "r4", "r5"]]

    def test_figure4_ranges(self):
        routes = figure4_routes()
        chunks = OrderingPartitioner().split_routes(list(routes.values()), 2)
        r1_range = ranges_of_prefixes([r.route.prefix for r in chunks[0]])[0]
        r2_range = ranges_of_prefixes([r.route.prefix for r in chunks[1]])[0]
        assert str(r1_range) == "[10.0.0.0, 20.255.255.255]"
        assert str(r2_range) == "[30.0.0.0, 40.0.0.255]"

    def test_figure4_flow_split(self):
        flows = figure4_flows()
        chunks = OrderingPartitioner().split_flows(list(flows.values()), 2)
        names = [
            [k for k, v in flows.items() if v in chunk] for chunk in chunks
        ]
        assert names == [["f1", "f2", "f4"], ["f3", "f5", "f6"]]

    def test_figure4_dependency(self):
        """T1 only overlaps R1's range; T2 only R2's — the paper's point."""
        routes, flows = figure4_routes(), figure4_flows()
        route_chunks = OrderingPartitioner().split_routes(list(routes.values()), 2)
        flow_chunks = OrderingPartitioner().split_flows(list(flows.values()), 2)
        route_ranges = [
            ranges_of_prefixes([r.route.prefix for r in chunk])[0]
            for chunk in route_chunks
        ]
        for t_index, chunk in enumerate(flow_chunks):
            lo = min(f.dst.value for f in chunk)
            hi = max(f.dst.value for f in chunk)
            overlaps = [
                r_index
                for r_index, rng in enumerate(route_ranges)
                if rng.low <= hi and lo <= rng.high
            ]
            assert overlaps == [t_index]

    def test_same_prefix_stays_together(self):
        routes = [
            inject_external_route("A", "10.0.0.0/24", (65010,)),
            inject_external_route("B", "10.0.0.0/24", (65011,)),
            inject_external_route("A", "10.0.1.0/24", (65010,)),
            inject_external_route("B", "10.0.1.0/24", (65011,)),
        ]
        chunks = OrderingPartitioner().split_routes(routes, 2)
        for chunk in chunks:
            prefixes = {str(r.route.prefix) for r in chunk}
            for other in chunks:
                if other is not chunk:
                    assert prefixes.isdisjoint(
                        {str(r.route.prefix) for r in other}
                    )

    def test_split_preserves_all_items(self):
        routes = list(figure4_routes().values())
        chunks = OrderingPartitioner().split_routes(routes, 4)
        assert sum(len(c) for c in chunks) == len(routes)

    def test_empty_input(self):
        assert OrderingPartitioner().split_routes([], 3) == [[], [], []]

    def test_huge_same_prefix_group_splits_in_linear_time(self):
        """Perf-shape regression: a popular prefix spanning a chunk
        boundary must be moved as one slice, not one ``pop(0)`` per route
        (which made the rebalance quadratic in the group size)."""
        shared = inject_external_route("A", "10.0.0.0/24", (65010,))
        routes = [shared] * 200_000 + [
            inject_external_route("A", "10.0.1.0/24", (65010,)),
            inject_external_route("A", "10.0.2.0/24", (65011,)),
        ]
        started = time.perf_counter()
        chunks = OrderingPartitioner().split_routes(routes, 2)
        elapsed = time.perf_counter() - started
        assert sum(len(c) for c in chunks) == len(routes)
        assert len(chunks[0]) == 200_000  # the whole group moved forward
        # The quadratic version takes minutes on 200k routes; the linear
        # slice-move finishes in well under a second even on slow CI.
        assert elapsed < 3.0


class TestRandomPartitioner:
    def test_same_prefix_stays_together(self):
        routes = []
        for i in range(20):
            routes.append(inject_external_route("A", f"10.0.{i}.0/24", (65010,)))
            routes.append(inject_external_route("B", f"10.0.{i}.0/24", (65011,)))
        chunks = RandomPartitioner(seed=3).split_routes(routes, 4)
        seen = {}
        for index, chunk in enumerate(chunks):
            for route in chunk:
                key = str(route.route.prefix)
                assert seen.setdefault(key, index) == index

    def test_deterministic_by_seed(self):
        routes = list(figure4_routes().values())
        a = RandomPartitioner(seed=1).split_routes(routes, 2)
        b = RandomPartitioner(seed=1).split_routes(routes, 2)
        assert [[str(r.route.prefix) for r in c] for c in a] == [
            [str(r.route.prefix) for r in c] for c in b
        ]

    def test_different_seeds_shuffle_differently(self):
        routes = [
            inject_external_route("A", f"10.{i}.0.0/24", (65010,))
            for i in range(40)
        ]
        a = RandomPartitioner(seed=1).split_routes(routes, 4)
        b = RandomPartitioner(seed=2).split_routes(routes, 4)
        assert [[str(r.route.prefix) for r in c] for c in a] != [
            [str(r.route.prefix) for r in c] for c in b
        ]

    def test_flow_split_deterministic_by_seed(self):
        flows = list(figure4_flows().values())
        a = RandomPartitioner(seed=9).split_flows(flows, 3)
        b = RandomPartitioner(seed=9).split_flows(flows, 3)
        assert [[str(f.dst) for f in c] for c in a] == [
            [str(f.dst) for f in c] for c in b
        ]

    def test_random_flows_span_whole_space(self):
        """Random flow chunks have wide dst ranges — every chunk overlaps
        every route range with high probability (the Figure 5(d) failure
        mode of the random strategy)."""
        flows = [
            make_flow("A", "192.168.0.1", f"{10 + i % 90}.0.0.{i % 250 + 1}")
            for i in range(400)
        ]
        chunks = RandomPartitioner(seed=5).split_flows(flows, 4)
        for chunk in chunks:
            lo = min(f.dst.value for f in chunk)
            hi = max(f.dst.value for f in chunk)
            # spans at least half of the 10.* .. 99.* space
            assert hi - lo > (90 << 24) // 2


class TestBalancedPartitioner:
    def test_balances_estimated_cost(self):
        # Short-AS-path (deep-propagating, expensive) routes spread out.
        routes = [
            inject_external_route("A", f"10.0.{i}.0/24", ()) for i in range(4)
        ] + [
            inject_external_route("A", f"20.0.{i}.0/24", tuple(range(65000, 65006)))
            for i in range(4)
        ]
        partitioner = BalancedPartitioner()
        chunks = partitioner.split_routes(routes, 2)
        loads = [
            sum(partitioner.cost_of(r) for r in chunk) for chunk in chunks
        ]
        assert abs(loads[0] - loads[1]) <= max(
            partitioner.cost_of(r) for r in routes
        )

    def test_same_prefix_stays_together(self):
        routes = [
            inject_external_route("A", "10.0.0.0/24", (65010,)),
            inject_external_route("B", "10.0.0.0/24", (65011,)),
        ]
        chunks = BalancedPartitioner().split_routes(routes, 2)
        non_empty = [c for c in chunks if c]
        assert len(non_empty) == 1 and len(non_empty[0]) == 2

    def test_split_preserves_all_items_and_is_deterministic(self):
        routes = [
            inject_external_route("A", f"10.{i % 7}.{i}.0/24",
                                  tuple(range(65000, 65000 + i % 5)))
            for i in range(60)
        ]
        a = BalancedPartitioner().split_routes(routes, 4)
        b = BalancedPartitioner().split_routes(routes, 4)
        assert sum(len(c) for c in a) == len(routes)
        assert [[str(r.route.prefix) for r in c] for c in a] == [
            [str(r.route.prefix) for r in c] for c in b
        ]

    def test_no_chunk_exceeds_balance_bound(self):
        """Greedy largest-first keeps every chunk within one max-group cost
        of the mean — the classic LPT-style invariant."""
        routes = [
            inject_external_route("A", f"20.{i}.0.0/24",
                                  tuple(range(65000, 65000 + i % 9)))
            for i in range(50)
        ]
        partitioner = BalancedPartitioner()
        chunks = partitioner.split_routes(routes, 4)
        loads = [sum(partitioner.cost_of(r) for r in c) for c in chunks]
        mean = sum(loads) / len(loads)
        max_group = max(partitioner.cost_of(r) for r in routes)
        for load in loads:
            assert load <= mean + max_group
