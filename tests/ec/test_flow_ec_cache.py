"""Flow-EC computation caches: policy-signature memoization and the
member -> representative map.

The policy signature is cached per (src, dst, protocol, dst_port) — the
only flow fields PBR/ACL matchers consult — and devices without policy
config are skipped entirely. Neither shortcut may change the partition.
"""

from repro.ec.flow_ec import build_prefix_universe, compute_flow_ecs
from repro.net.addr import Prefix
from repro.net.device import AclConfig, AclRuleConfig, PbrRuleConfig
from repro.routing.inputs import inject_external_route
from repro.routing.simulator import simulate_routes
from repro.traffic import make_flow

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"
DST = "203.0.113.9"


def square_model():
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("A", "C", 10), ("B", "D", 10), ("C", "D", 10)],
    )
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    return model


def universe_for(model):
    result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
    return build_prefix_universe(result.device_ribs.values())


def partition_key(index):
    """Comparable snapshot of an EC partition (member sets per class)."""
    return {
        frozenset(ec.members) for ec in index.classes
    }


class TestPolicySignatureCache:
    def test_policy_free_model_matches_no_model(self):
        model = square_model()
        universe = universe_for(model)
        flows = [
            make_flow("A", f"10.0.{i}.1", DST, src_port=i) for i in range(40)
        ]
        with_model = compute_flow_ecs(flows, universe, model=model)
        without_model = compute_flow_ecs(flows, universe, model=None)
        assert partition_key(with_model) == partition_key(without_model)

    def test_acl_still_discriminates_flows(self):
        model = square_model()
        acl = AclConfig(name="SRC-FILTER")
        acl.add(
            AclRuleConfig(
                seq=10, action="deny", src_prefix=Prefix.parse("10.0.1.0/24")
            )
        )
        acl.add(AclRuleConfig(seq=20, action="permit"))
        model.device("B").add_acl(acl)
        universe = universe_for(model)
        denied = make_flow("A", "10.0.1.5", DST, src_port=1)
        allowed = make_flow("A", "10.0.2.5", DST, src_port=1)
        index = compute_flow_ecs([denied, allowed], universe, model=model)
        assert len(index.classes) == 2

    def test_pbr_still_discriminates_flows(self):
        model = square_model()
        model.device("A").add_pbr_rule(
            PbrRuleConfig(
                seq=10, nexthop="C", src_prefix=Prefix.parse("10.0.1.0/24")
            )
        )
        universe = universe_for(model)
        steered = make_flow("A", "10.0.1.5", DST)
        plain = make_flow("A", "10.0.2.5", DST)
        index = compute_flow_ecs([steered, plain], universe, model=model)
        assert len(index.classes) == 2

    def test_repeated_signatures_share_one_class(self):
        model = square_model()
        model.device("A").add_pbr_rule(
            PbrRuleConfig(
                seq=10, nexthop="C", src_prefix=Prefix.parse("10.0.1.0/24")
            )
        )
        universe = universe_for(model)
        # Same (src, dst, protocol, dst_port): identical cached signature.
        flows = [
            make_flow("A", "10.0.1.5", DST, src_port=p) for p in range(32)
        ]
        index = compute_flow_ecs(flows, universe, model=model)
        assert len(index.classes) == 1
        assert index.classes[0].size == 32


class TestRepresentativeMap:
    def test_member_maps_to_representative(self):
        model = square_model()
        universe = universe_for(model)
        flows = [
            make_flow("A", f"10.0.{i % 3}.1", DST, src_port=i) for i in range(30)
        ]
        index = compute_flow_ecs(flows, universe, model=model)
        for ec in index.classes:
            for member in ec.members:
                assert index.representative_of(member) == ec.representative

    def test_unknown_flow_returns_none(self):
        model = square_model()
        universe = universe_for(model)
        flows = [make_flow("A", "10.0.0.1", DST)]
        index = compute_flow_ecs(flows, universe, model=model)
        stranger = make_flow("B", "10.9.9.9", DST, src_port=999)
        assert index.representative_of(stranger) is None

    def test_map_built_once(self):
        model = square_model()
        universe = universe_for(model)
        flows = [make_flow("A", f"10.0.{i}.1", DST) for i in range(10)]
        index = compute_flow_ecs(flows, universe, model=model)
        index.representative_of(flows[0])
        first = index._rep_of
        index.representative_of(flows[5])
        assert index._rep_of is first
