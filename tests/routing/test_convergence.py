"""Tests for BGP convergence behaviour and the round-cap safety valve.

§5.3 lists BGP convergence as a fundamental limitation: Hoyan may converge
to a state different from the live network. The simulator exposes this
through the ``converged`` flag and the round cap.
"""

from repro.net.addr import Prefix
from repro.routing.inputs import inject_external_route
from repro.routing.simulator import simulate_routes

from tests.helpers import build_model

PFX = "203.0.113.0/24"


def chain_model(length=6):
    """A line of routers long enough to need several propagation rounds."""
    names = [f"R{i}" for i in range(length)]
    model = build_model(
        routers=[(n, 100) for n in names],
        links=[(names[i], names[i + 1], 10) for i in range(length - 1)],
    )
    # Chain of RR sessions: each router reflects to the next.
    from repro.net.device import BgpPeerConfig

    for i in range(length - 1):
        a, b = names[i], names[i + 1]
        model.device(a).add_peer(
            BgpPeerConfig(peer=b, remote_asn=100, route_reflector_client=True)
        )
        model.device(b).add_peer(
            BgpPeerConfig(peer=a, remote_asn=100, route_reflector_client=True)
        )
    return model, names


class TestConvergence:
    def test_deep_chain_converges(self):
        model, names = chain_model(6)
        result = simulate_routes(model, [inject_external_route(names[0], PFX, (65010,))])
        assert result.stats.converged
        assert result.stats.rounds >= 5  # one hop per round down the chain
        assert result.device_ribs[names[-1]].routes_for(Prefix.parse(PFX))

    def test_round_cap_truncates_and_flags(self):
        model, names = chain_model(6)
        result = simulate_routes(
            model,
            [inject_external_route(names[0], PFX, (65010,))],
            max_rounds=2,
        )
        assert not result.stats.converged
        # The far end never learned the prefix: the §5.3 divergence class.
        assert result.device_ribs[names[-1]].routes_for(Prefix.parse(PFX)) == []
        # But nearby routers did: truncation gives a *partial* state, not an
        # empty one — exactly why it is hard to notice without diagnosis.
        assert result.device_ribs[names[1]].routes_for(Prefix.parse(PFX))

    def test_paper_bound_on_wan(self):
        """The paper: the WAN fixpoint terminates within 20 rounds."""
        from repro.workload import WanParams, generate_wan, generate_input_routes

        model, inventory = generate_wan(WanParams(regions=2, seed=3))
        routes = generate_input_routes(inventory, n_prefixes=20, seed=5)
        result = simulate_routes(model, routes)
        assert result.stats.converged
        assert result.stats.rounds <= 20
