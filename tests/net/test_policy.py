"""Tests for route policies and their VSB-aware evaluation."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import IPAddress, Prefix
from repro.net.config import parse_config
from repro.net.policy import (
    AsPathList,
    CommunityList,
    MatchClause,
    PolicyContext,
    PolicyError,
    PrefixList,
    SetClause,
    apply_policy,
)
from repro.net.vendors import VENDOR_A, VENDOR_B
from repro.routing.attributes import Route


def route(prefix="10.0.0.0/24", **kwargs) -> Route:
    return Route(prefix=Prefix.parse(prefix), **kwargs)


class TestPrefixList:
    def test_exact_match(self):
        plist = PrefixList("P").add("10.0.0.0/24")
        assert plist.evaluate(Prefix.parse("10.0.0.0/24"), VENDOR_A)
        assert not plist.evaluate(Prefix.parse("10.0.0.0/25"), VENDOR_A)
        assert not plist.evaluate(Prefix.parse("10.0.1.0/24"), VENDOR_A)

    def test_le_range(self):
        plist = PrefixList("P").add("10.0.0.0/8", le=24)
        assert plist.evaluate(Prefix.parse("10.1.0.0/16"), VENDOR_A)
        assert plist.evaluate(Prefix.parse("10.0.0.0/8"), VENDOR_A)
        assert not plist.evaluate(Prefix.parse("10.0.0.0/25"), VENDOR_A)

    def test_ge_range(self):
        plist = PrefixList("P").add("10.0.0.0/8", ge=24)
        assert plist.evaluate(Prefix.parse("10.0.0.0/24"), VENDOR_A)
        assert plist.evaluate(Prefix.parse("10.0.0.1/32"), VENDOR_A)
        assert not plist.evaluate(Prefix.parse("10.0.0.0/16"), VENDOR_A)

    def test_deny_entry_short_circuits(self):
        plist = (
            PrefixList("P")
            .add("10.0.0.0/24", action="deny")
            .add("10.0.0.0/8", le=32)
        )
        assert not plist.evaluate(Prefix.parse("10.0.0.0/24"), VENDOR_A)
        assert plist.evaluate(Prefix.parse("10.0.1.0/24"), VENDOR_A)

    def test_ipv4_list_on_ipv6_route_is_vsb(self):
        # The §6.1 'ip-prefix' vs 'ipv6-prefix' case study behaviour.
        plist = PrefixList("P", family=4).add("10.0.0.0/8")
        v6 = Prefix.parse("2001:db8::/32")
        assert plist.evaluate(v6, VENDOR_B)      # permits ALL IPv6
        assert not plist.evaluate(v6, VENDOR_A)  # never matches

    def test_ipv6_list_on_ipv4_route_never_matches(self):
        plist = PrefixList("P", family=6).add("2001:db8::/32")
        assert not plist.evaluate(Prefix.parse("10.0.0.0/8"), VENDOR_B)

    def test_long_list_first_match_table(self):
        # Earlier denies overlap later permits; ge/le bounds decide which
        # entry a candidate reaches first.
        plist = (
            PrefixList("P", family=4)
            .add("10.1.0.0/16", action="deny", ge=24, le=28)  # 0
            .add("10.1.2.0/24")                               # 1: shadowed by 0
            .add("10.0.0.0/8", action="deny", ge=30)          # 2
            .add("10.1.0.0/16", le=32)                        # 3
            .add("172.16.0.0/12", ge=16, le=24)               # 4
            .add("172.16.5.0/24", action="deny")              # 5: shadowed by 4
            .add("192.168.0.0/16", action="deny", le=24)      # 6
            .add("192.168.0.0/16", ge=25)                     # 7
            .add("0.0.0.0/0", ge=8, le=8)                     # 8
            .add("0.0.0.0/0", action="deny", le=32)           # 9
        )
        # candidate -> (verdict on VENDOR_A, verdict on VENDOR_B)
        expected = {
            "10.1.2.0/24": (False, False),      # 0 before 1
            "10.1.0.0/23": (True, True),        # below 0's ge -> 3
            "10.1.2.128/29": (True, True),      # above 0's le -> 3
            "10.1.2.4/30": (False, False),      # 2 before 3
            "10.1.0.0/16": (True, True),        # 3
            "10.2.0.0/16": (False, False),      # 9
            "10.0.0.0/8": (True, True),         # 8
            "11.0.0.0/8": (True, True),         # 8
            "172.16.5.0/24": (True, True),      # 4 before 5
            "172.16.5.128/25": (False, False),  # above 4's le, not 5 -> 9
            "172.16.0.0/12": (False, False),    # below 4's ge -> 9
            "192.168.1.0/24": (False, False),   # 6
            "192.168.1.0/25": (True, True),     # 7
            "2001:db8::/32": (False, True),     # cross-family VSB
        }
        actual = {
            text: (
                plist.evaluate(Prefix.parse(text), VENDOR_A),
                plist.evaluate(Prefix.parse(text), VENDOR_B),
            )
            for text in expected
        }
        assert actual == expected


class TestCommunityAndAsPathLists:
    def test_community_list(self):
        clist = CommunityList("C").add("100:1")
        assert clist.evaluate(route(communities=frozenset({"100:1", "2:2"})))
        assert not clist.evaluate(route(communities=frozenset({"2:2"})))

    def test_aspath_search_semantics(self):
        alist = AsPathList("A").add(r"\b123\b")
        assert alist.evaluate(route(as_path=(65001, 123, 65002)))
        assert not alist.evaluate(route(as_path=(65001, 1234)))

    def test_aspath_fullmatch_flaw(self):
        # Hoyan's historical regex bug: full-match instead of search.
        alist = AsPathList("A").add("123")
        r = route(as_path=(65001, 123))
        assert alist.evaluate(r)
        assert not alist.evaluate(r, fullmatch=True)

    def test_bad_regex_rejected(self):
        with pytest.raises(PolicyError):
            AsPathList("A").add("(")


class TestPolicyEvaluation:
    def make_ctx(self, vendor=VENDOR_A) -> PolicyContext:
        ctx = PolicyContext(vendor=vendor)
        ctx.define_prefix_list("PL").add("10.0.0.0/8", le=32)
        ctx.define_community_list("CL").add("100:1")
        policy = ctx.define_policy("POL")
        policy.node(10, "deny").match("community-list", "CL")
        policy.node(20, "permit").match("prefix-list", "PL").set("local-pref", 300)
        return ctx

    def test_deny_node(self):
        ctx = self.make_ctx()
        result = apply_policy("POL", route(communities=frozenset({"100:1"})), ctx)
        assert not result.permitted
        assert result.matched_node == 10

    def test_permit_node_transforms(self):
        ctx = self.make_ctx()
        result = apply_policy("POL", route(), ctx)
        assert result.permitted
        assert result.route.local_pref == 300
        assert result.matched_node == 20

    def test_missing_policy_vsb(self):
        r = route()
        assert apply_policy(None, r, PolicyContext(vendor=VENDOR_A)).permitted
        assert not apply_policy(None, r, PolicyContext(vendor=VENDOR_B)).permitted

    def test_undefined_policy_vsb(self):
        r = route()
        assert not apply_policy("NOPE", r, PolicyContext(vendor=VENDOR_A)).permitted
        assert apply_policy("NOPE", r, PolicyContext(vendor=VENDOR_B)).permitted

    def test_default_policy_vsb(self):
        # Route matching no node: vendor-a denies, vendor-b accepts.
        for vendor, expected in ((VENDOR_A, False), (VENDOR_B, True)):
            ctx = PolicyContext(vendor=vendor)
            ctx.define_policy("P").node(10, "permit").match("community", "9:9")
            assert apply_policy("P", route(), ctx).permitted is expected

    def test_undefined_filter_vsb(self):
        # Node references an undefined prefix-list.
        for vendor, expected in ((VENDOR_A, True), (VENDOR_B, False)):
            ctx = PolicyContext(vendor=vendor)
            ctx.define_policy("P").node(10, "permit").match("prefix-list", "GHOST")
            result = apply_policy("P", route(), ctx)
            # vendor-a: undefined filter matches -> node 10 permits.
            # vendor-b: never matches -> falls through -> default accepts.
            assert result.permitted is (expected or vendor.default_policy_accepts)
            if vendor is VENDOR_A:
                assert result.matched_node == 10
            else:
                assert result.matched_node is None

    def test_implicit_action_vsb(self):
        for vendor, expected in ((VENDOR_A, True), (VENDOR_B, False)):
            ctx = PolicyContext(vendor=vendor)
            ctx.define_policy("P").node(10, None)  # no explicit permit/deny
            assert apply_policy("P", route(), ctx).permitted is expected

    def test_set_clauses(self):
        ctx = PolicyContext(vendor=VENDOR_A)
        node = ctx.define_policy("P").node(10, "permit")
        node.set("med", 50)
        node.set("weight", 7)
        node.set("community-add", ("1:1", "2:2"))
        node.set("aspath-prepend", (65000, 3))
        node.set("nexthop", IPAddress.parse("192.0.2.9"))
        result = apply_policy("P", route(as_path=(1,)), ctx)
        r = result.route
        assert r.med == 50 and r.weight == 7
        assert {"1:1", "2:2"} <= r.communities
        assert r.as_path == (65000, 65000, 65000, 1)
        assert str(r.nexthop) == "192.0.2.9"

    def test_community_set_and_delete(self):
        ctx = PolicyContext(vendor=VENDOR_A)
        ctx.define_policy("SET").node(10, "permit").set("community-set", ("5:5",))
        ctx.define_policy("DEL").node(10, "permit").set("community-delete", ("1:1",))
        r = route(communities=frozenset({"1:1", "2:2"}))
        assert apply_policy("SET", r, ctx).route.communities == {"5:5"}
        assert apply_policy("DEL", r, ctx).route.communities == {"2:2"}

    def test_aspath_overwrite(self):
        ctx = PolicyContext(vendor=VENDOR_A)
        ctx.define_policy("P").node(10, "permit").set("aspath-set", (100, 200))
        assert apply_policy("P", route(as_path=(1, 2, 3)), ctx).route.as_path == (100, 200)

    def test_set_once_per_attribute(self):
        node = PolicyContext(vendor=VENDOR_A).define_policy("P").node(10, "permit")
        node.set("local-pref", 300).set("community-add", ("1:1",))
        node.set("local-pref", 200).set("local-pref", 200)
        node.set("community-set", ("2:2",)).set("community-delete", ("3:3",))
        node.match("prefix-list", "PL").match("prefix-list", "PL")
        assert node.sets == [
            SetClause("local-pref", 200),
            SetClause("community-set", ("2:2",)),
            SetClause("community-delete", ("3:3",)),
        ]
        assert node.matches == [MatchClause("prefix-list", "PL")]

    @pytest.mark.parametrize(
        "clause, kind, value",
        [
            (SetClause, "local-pref", "300"),
            (SetClause, "local-pref", -1),
            (SetClause, "nexthop", "192.0.2.9"),
            (SetClause, "community-add", "1:1,2:2"),
            (SetClause, "community-add", ("2:2", "1:1")),
            (SetClause, "community-set", ("65000:0100",)),
            (SetClause, "aspath-prepend", "65000*3"),
            (SetClause, "aspath-prepend", (65000, 0)),
            (SetClause, "aspath-set", "100 200"),
            (MatchClause, "prefix", "10.0.0.0/8"),
            (MatchClause, "nexthop", "192.0.2.9"),
            (MatchClause, "community", "65000:0100"),
            (MatchClause, "protocol", "bgpp"),
            (MatchClause, "prefix-list", ""),
        ],
    )
    def test_wrongly_typed_value_rejected(self, clause, kind, value):
        with pytest.raises(PolicyError):
            clause(kind, value)

    def test_upper_case_ipv6_nexthop_matches(self):
        config = parse_config(
            "route-map P permit 10\n match ipv6 nexthop 2001:DB8::1", "R1", vendor="vendor-a"
        )
        r = route("2001:db8:1::/48", nexthop=IPAddress.parse("2001:db8::1"))
        assert apply_policy("P", r, config.policy_ctx).matched_node == 10

    def test_community_list_entry_is_normalised(self):
        config = parse_config(
            "ip community-list CL permit 65000:0100\n"
            "route-map TAG permit 10\n set community 65000:0100\n"
            "route-map P permit 10\n match community CL",
            "R1",
            vendor="vendor-a",
        )
        tagged = apply_policy("TAG", route(), config.policy_ctx).route
        assert tagged.communities == {"65000:100"}
        assert apply_policy("P", tagged, config.policy_ctx).matched_node == 10

    def test_nodes_evaluated_in_seq_order(self):
        ctx = PolicyContext(vendor=VENDOR_A)
        policy = ctx.define_policy("P")
        policy.node(20, "permit")
        policy.node(10, "deny")
        assert not apply_policy("P", route(), ctx).permitted

    def test_duplicate_node_rejected(self):
        ctx = PolicyContext(vendor=VENDOR_A)
        policy = ctx.define_policy("P")
        policy.node(10)
        with pytest.raises(PolicyError):
            policy.node(10)

    def test_remove_missing_node_rejected(self):
        ctx = PolicyContext(vendor=VENDOR_A)
        policy = ctx.define_policy("P")
        with pytest.raises(PolicyError):
            policy.remove_node(10)

    def test_ctx_copy_is_independent(self):
        ctx = self.make_ctx()
        clone = ctx.copy()
        clone.policies["POL"].remove_node(10)
        assert len(ctx.policies["POL"].nodes) == 2
        assert len(clone.policies["POL"].nodes) == 1


@given(
    lp=st.integers(min_value=0, max_value=1 << 31),
    med=st.integers(min_value=0, max_value=1 << 31),
)
def test_policy_set_roundtrip_property(lp, med):
    ctx = PolicyContext(vendor=VENDOR_A)
    node = ctx.define_policy("P").node(10, "permit")
    node.set("local-pref", lp)
    node.set("med", med)
    result = apply_policy("P", route(), ctx)
    assert result.route.local_pref == lp
    assert result.route.med == med
