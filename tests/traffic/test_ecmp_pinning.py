"""ECMP choices are pinned.

``_pick_ecmp`` sorts each matched route list into a deterministic ECMP
order and indexes into it per flow hash; IGP next hops are sorted the same
way. These tests pin the literal chosen path for a seeded flow set so any
reordering — in the sort key, in the hash, or in spread-option sorting —
fails loudly, with the fast path on and off.
"""

from repro import perfopts
from repro.routing.inputs import inject_external_route
from repro.routing.simulator import simulate_routes
from repro.traffic import ForwardingEngine, make_flow

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"
DST = "203.0.113.9"

FASTPATH_OFF = dict(topo_index=False, spread_memo=False)

#: (src_port offset) -> the exact routers the seeded flow must traverse.
PINNED_FORWARD = {
    0: ("A", "C", "D"),
    1: ("A", "B", "D"),
    2: ("A", "C", "D"),
    3: ("A", "B", "D"),
    4: ("A", "C", "D"),
    5: ("A", "B", "D"),
    6: ("A", "C", "D"),
    7: ("A", "B", "D"),
}

#: Spread mode must emit both ECMP paths in sorted-option order.
PINNED_SPREAD = [(("A", "B", "D"), 0.5), (("A", "C", "D"), 0.5)]


def square_engine():
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("A", "C", 10), ("B", "D", 10), ("C", "D", 10)],
    )
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
    return ForwardingEngine(model, result.device_ribs, result.igp)


def seeded_flow(p):
    return make_flow("A", f"10.1.2.{p}", DST, src_port=4000 + p)


class TestEcmpPinning:
    def test_forward_paths_pinned_fast_path_on(self):
        engine = square_engine()
        chosen = {p: tuple(engine.forward(seeded_flow(p)).routers) for p in PINNED_FORWARD}
        assert chosen == PINNED_FORWARD

    def test_forward_paths_pinned_fast_path_off(self):
        with perfopts.configured(**FASTPATH_OFF):
            engine = square_engine()
            chosen = {
                p: tuple(engine.forward(seeded_flow(p)).routers) for p in PINNED_FORWARD
            }
        assert chosen == PINNED_FORWARD

    def test_spread_order_pinned_both_modes(self):
        engine = square_engine()
        fast = [
            (tuple(path.routers), fraction)
            for path, fraction in engine.forward_spread(seeded_flow(0))
        ]
        assert fast == PINNED_SPREAD
        with perfopts.configured(**FASTPATH_OFF):
            slow_engine = square_engine()
            slow = [
                (tuple(path.routers), fraction)
                for path, fraction in slow_engine.forward_spread(seeded_flow(0))
            ]
        assert slow == PINNED_SPREAD

    def test_route_ecmp_choice_pinned(self):
        """Two equal-attribute border exits: a genuine route-level ECMP set."""
        expected = {p: ("A", "C") if p % 2 == 0 else ("A", "B") for p in range(8)}
        for flags in ({}, FASTPATH_OFF):
            with perfopts.configured(**flags):
                model = build_model(
                    routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
                    links=[
                        ("A", "B", 10), ("A", "C", 10), ("B", "D", 10), ("C", "D", 10)
                    ],
                )
                full_mesh_ibgp(model, ["A", "B", "C", "D"])
                result = simulate_routes(
                    model,
                    [
                        inject_external_route("B", PFX, (65010,)),
                        inject_external_route("C", PFX, (65010,)),
                    ],
                )
                engine = ForwardingEngine(model, result.device_ribs, result.igp)
                chosen = {
                    p: tuple(engine.forward(seeded_flow(p)).routers) for p in expected
                }
            assert chosen == expected, flags
