"""ECMP spreads are pinned.

Spread forwarding sorts each branch's next routers, and the walk emits
paths in that order. These tests pin the literal paths and fractions for a
seeded flow set so any reordering — in option sorting or in the walk —
fails loudly, with the fast path on and off.
"""

from repro import perfopts
from repro.routing.inputs import inject_external_route
from repro.routing.simulator import simulate_routes
from repro.traffic import ForwardingEngine, make_flow
from repro.traffic.forwarding import STATUS_EXITED

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"
DST = "203.0.113.9"

FASTPATH_OFF = dict(topo_index=False, spread_memo=False)

#: Spread mode must emit both ECMP paths in sorted-option order.
PINNED_SPREAD = [(("A", "B", "D"), 0.5), (("A", "C", "D"), 0.5)]

#: Seeded flows (by src_port offset) that must all take ``PINNED_SPREAD``.
SEEDED = range(8)


def square_engine(exits=("D",)):
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("A", "C", 10), ("B", "D", 10), ("C", "D", 10)],
    )
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    result = simulate_routes(
        model, [inject_external_route(exit, PFX, (65010,)) for exit in exits]
    )
    return ForwardingEngine(model, result.device_ribs, result.igp)


def seeded_flow(p):
    return make_flow("A", f"10.1.2.{p}", DST, src_port=4000 + p)


def spread_of(engine, flow):
    return [
        (tuple(path.routers), fraction)
        for path, fraction in engine.forward_spread(flow)
    ]


class TestEcmpPinning:
    def test_forward_paths_pinned_fast_path_on(self):
        engine = square_engine()
        chosen = {p: spread_of(engine, seeded_flow(p)) for p in SEEDED}
        assert chosen == {p: PINNED_SPREAD for p in SEEDED}

    def test_forward_paths_pinned_fast_path_off(self):
        with perfopts.configured(**FASTPATH_OFF):
            engine = square_engine()
            chosen = {p: spread_of(engine, seeded_flow(p)) for p in SEEDED}
        assert chosen == {p: PINNED_SPREAD for p in SEEDED}

    def test_spread_order_pinned_both_modes(self):
        engine = square_engine()
        assert spread_of(engine, seeded_flow(0)) == PINNED_SPREAD
        with perfopts.configured(**FASTPATH_OFF):
            slow_engine = square_engine()
            assert spread_of(slow_engine, seeded_flow(0)) == PINNED_SPREAD

    def test_route_ecmp_choice_pinned(self):
        """Two equal-attribute border exits: a genuine route-level ECMP set."""
        expected = [(("A", "B"), 0.5), (("A", "C"), 0.5)]
        for flags in ({}, FASTPATH_OFF):
            with perfopts.configured(**flags):
                engine = square_engine(exits=("B", "C"))
                for p in SEEDED:
                    spread = engine.forward_spread(seeded_flow(p))
                    assert [
                        (tuple(path.routers), fraction) for path, fraction in spread
                    ] == expected, flags
                    assert all(path.status == STATUS_EXITED for path, _ in spread)
