"""Tests for IS-IS SPF, cost overrides, ECMP sets, and failures."""

from hypothesis import given, strategies as st

from repro.routing.isis import compute_igp

from tests.helpers import build_model


def square_model(costs=(10, 10, 10, 10)):
    """A-B-D and A-C-D square with configurable costs."""
    ab, bd, ac, cd = costs
    return build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", ab), ("B", "D", bd), ("A", "C", ac), ("C", "D", cd)],
    )


class TestSpf:
    def test_distances(self):
        igp = compute_igp(square_model())
        assert igp.cost("A", "B") == 10
        assert igp.cost("A", "D") == 20
        assert igp.cost("A", "A") == 0

    def test_ecmp_next_hops(self):
        igp = compute_igp(square_model())
        assert igp.hops_towards("A", "D") == ("B", "C")
        assert igp.hops_towards("A", "B") == ("B",)

    def test_asymmetric_costs_break_ecmp(self):
        igp = compute_igp(square_model(costs=(10, 10, 10, 20)))
        assert igp.hops_towards("A", "D") == ("B",)
        assert igp.cost("A", "D") == 20

    def test_cost_override_is_directional(self):
        model = square_model()
        model.device("A").isis.cost_overrides["B"] = 100
        igp = compute_igp(model)
        # A -> B now expensive, but B -> A still costs 10.
        assert igp.cost("A", "B") == 30  # via C, D
        assert igp.cost("B", "A") == 10
        assert igp.hops_towards("A", "D") == ("C",)

    def test_shortest_path(self):
        """Next hops chain along the one shortest path A-B-D."""
        igp = compute_igp(square_model(costs=(10, 10, 10, 20)))
        assert igp.hops_towards("A", "D") == ("B",)
        assert igp.hops_towards("B", "D") == ("D",)
        assert igp.hops_towards("A", "A") == ()
        assert igp.cost("A", "D") == igp.cost("A", "B") + igp.cost("B", "D")

    def test_failed_link_rerouted(self):
        model = square_model()
        model.topology.fail_link(model.topology.find_link("A", "B"))
        igp = compute_igp(model)
        assert igp.cost("A", "B") == 30  # A-C-D-B
        assert igp.hops_towards("A", "B") == ("C",)

    def test_failed_router_unreachable(self):
        model = build_model(
            routers=[("A", 1), ("B", 1), ("C", 1)],
            links=[("A", "B", 10), ("B", "C", 10)],
        )
        model.topology.fail_router("B")
        igp = compute_igp(model)
        assert not igp.reachable("A", "C")
        assert igp.hops_towards("A", "C") == ()

    def test_isis_disabled_device_excluded(self):
        model = build_model(
            routers=[("A", 1), ("B", 1), ("C", 1)],
            links=[("A", "B", 10), ("B", "C", 10)],
        )
        model.device("B").isis.enabled = False
        igp = compute_igp(model)
        assert not igp.reachable("A", "C")

    def test_parallel_links_use_cheapest(self):
        model = build_model(
            routers=[("A", 1), ("B", 1)], links=[("A", "B", 10), ("A", "B", 5)]
        )
        igp = compute_igp(model)
        assert igp.cost("A", "B") == 5


@given(
    costs=st.tuples(*[st.integers(min_value=1, max_value=100)] * 4),
)
def test_triangle_inequality_property(costs):
    """dist(A, D) is never more than dist(A, X) + dist(X, D)."""
    igp = compute_igp(square_model(costs))
    for x in ("B", "C"):
        assert igp.cost("A", "D") <= igp.cost("A", x) + igp.cost(x, "D")


@given(costs=st.tuples(*[st.integers(min_value=1, max_value=100)] * 4))
def test_next_hop_consistency_property(costs):
    """Following any ECMP next hop reduces the remaining distance correctly."""
    igp = compute_igp(square_model(costs))
    for src in ("A", "B", "C", "D"):
        for dst in ("A", "B", "C", "D"):
            if src == dst:
                continue
            for hop in igp.hops_towards(src, dst):
                step = igp.cost(src, dst) - igp.cost(hop, dst)
                assert step > 0
