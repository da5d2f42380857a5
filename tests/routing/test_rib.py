"""Tests for DeviceRib and the global RIB abstraction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addr import IPAddress, Prefix
from repro.routing.attributes import Route
from repro.routing.rib import (
    DeviceRib,
    GlobalRib,
    RibRoute,
    ROUTE_TYPE_BEST,
    ROUTE_TYPE_CANDIDATE,
    ROUTE_TYPE_ECMP,
    RIB_FIELDS,
    UnknownFieldError,
    device_rib_fingerprint,
)


def route(prefix, nh="2.0.0.1", **kwargs):
    return Route(
        prefix=Prefix.parse(prefix),
        nexthop=IPAddress.parse(nh) if nh else None,
        **kwargs,
    )


class TestDeviceRib:
    def test_install_and_query(self):
        rib = DeviceRib("A")
        rib.install(route("10.0.0.0/24"))
        rib.install(route("10.0.0.0/24", nh="3.0.0.1"), route_type=ROUTE_TYPE_ECMP)
        rib.install(route("10.0.0.0/24", nh="4.0.0.1"), route_type=ROUTE_TYPE_CANDIDATE)
        best = rib.routes_for(Prefix.parse("10.0.0.0/24"))
        assert len(best) == 2  # BEST + ECMP
        everything = rib.routes_for(Prefix.parse("10.0.0.0/24"), best_only=False)
        assert len(everything) == 3

    def test_vrf_separation(self):
        rib = DeviceRib("A")
        rib.install(route("10.0.0.0/24"), vrf="global")
        rib.install(route("10.0.0.0/24"), vrf="vrf1")
        assert rib.prefixes("global") == [Prefix.parse("10.0.0.0/24")]
        assert rib.prefixes("vrf1") == [Prefix.parse("10.0.0.0/24")]
        assert rib.prefixes("ghost") == []
        assert set(rib.vrfs) == {"global", "vrf1"}

    def test_lpm_over_best_routes_only(self):
        rib = DeviceRib("A")
        rib.install(route("10.0.0.0/8"))
        rib.install(route("10.0.0.0/24"), route_type=ROUTE_TYPE_CANDIDATE)
        prefix, routes = rib.lpm(IPAddress.parse("10.0.0.5"))
        # The /24 is only a candidate, so LPM resolves to the /8.
        assert prefix == Prefix.parse("10.0.0.0/8")

    def test_lpm_cache_invalidation(self):
        rib = DeviceRib("A")
        rib.install(route("10.0.0.0/8"))
        assert rib.lpm(IPAddress.parse("10.1.2.3")) is not None
        rib.install(route("10.1.0.0/16"))
        prefix, _ = rib.lpm(IPAddress.parse("10.1.2.3"))
        assert prefix == Prefix.parse("10.1.0.0/16")

    def test_replace_prefix(self):
        rib = DeviceRib("A")
        rib.install(route("10.0.0.0/24"))
        rib.replace_prefix(
            "global", Prefix.parse("10.0.0.0/24"),
            [(route("10.0.0.0/24", nh="9.9.9.9"), ROUTE_TYPE_BEST)],
        )
        assert str(rib.routes_for(Prefix.parse("10.0.0.0/24"))[0].nexthop) == "9.9.9.9"
        rib.replace_prefix("global", Prefix.parse("10.0.0.0/24"), [])
        assert rib.prefixes("global") == []

    def test_route_count(self):
        rib = DeviceRib("A")
        rib.install(route("10.0.0.0/24"))
        rib.install(route("10.0.1.0/24"), vrf="vrf1")
        assert rib.route_count() == 2


class TestDeviceRibFingerprint:
    def test_same_content_same_fingerprint(self):
        first, second = DeviceRib("A"), DeviceRib("A")
        first.install(route("10.1.0.0/16"))
        second.install(route("10.1.0.0/16"))
        assert device_rib_fingerprint(first) == device_rib_fingerprint(second)

    def test_different_content_differs(self):
        first, second = DeviceRib("A"), DeviceRib("A")
        first.install(route("10.1.0.0/16"))
        second.install(route("10.2.0.0/16"))
        assert device_rib_fingerprint(first) != device_rib_fingerprint(second)

    def test_empty_rib_has_fingerprint(self):
        assert len(device_rib_fingerprint(DeviceRib("A"))) == 64


class TestRibRoute:
    def test_field_access(self):
        row = RibRoute(
            "A", "global",
            route("10.0.0.0/24", local_pref=300, communities=frozenset({"1:1"})),
        )
        assert row.field("device") == "A"
        assert row.field("prefix") == "10.0.0.0/24"
        assert row.field("localPref") == 300
        assert row.field("communities") == frozenset({"1:1"})
        assert row.field("routeType") == "BEST"

    def test_all_fields_resolvable(self):
        row = RibRoute("A", "global", route("10.0.0.0/24"))
        for field in RIB_FIELDS:
            row.field(field)  # must not raise

    def test_unknown_field(self):
        row = RibRoute("A", "global", route("10.0.0.0/24"))
        with pytest.raises(UnknownFieldError):
            row.field("bogus")

    def test_identity_covers_attributes(self):
        a = RibRoute("A", "global", route("10.0.0.0/24", local_pref=100))
        b = RibRoute("A", "global", route("10.0.0.0/24", local_pref=200))
        assert a.identity() != b.identity()


class TestGlobalRib:
    def rows(self):
        return [
            RibRoute("A", "global", route("10.0.0.0/24", local_pref=100)),
            RibRoute("A", "vrf1", route("20.0.0.0/24")),
            RibRoute(
                "B", "global", route("10.0.0.0/24", nh="3.0.0.1"),
                route_type=ROUTE_TYPE_CANDIDATE,
            ),
        ]

    def test_from_device_ribs(self):
        rib = DeviceRib("A")
        rib.install(route("10.0.0.0/24"))
        grib = GlobalRib.from_device_ribs([rib])
        assert len(grib) == 1

    def test_best_routes_drops_candidates(self):
        grib = GlobalRib(self.rows())
        assert len(grib.best_routes()) == 2

    def test_equality_is_set_based(self):
        rows = self.rows()
        assert GlobalRib(rows) == GlobalRib(list(reversed(rows)))
        assert GlobalRib(rows) != GlobalRib(rows[:1])
        assert GlobalRib(rows).__eq__(object()) is NotImplemented
        assert GlobalRib(rows) != object()

    def test_a_view_equals_the_table_of_its_rows(self):
        rib = DeviceRib("A")
        rib.install(route("10.0.0.0/24"))
        rib.install(route("10.0.0.0/24", nh="3.0.0.1"), route_type=ROUTE_TYPE_CANDIDATE)
        view = GlobalRib.from_device_ribs([rib])
        best = view.best_routes()
        table = GlobalRib(rib.all_rows())
        assert view == table and table == view
        assert best == table.best_routes() and table.best_routes() == best
        assert best != table and table != best

    def test_str_truncates(self):
        grib = GlobalRib(
            [RibRoute("A", "global", route(f"10.0.{i}.0/24")) for i in range(30)]
        )
        assert "and 10 more" in str(grib)


@given(
    prefix_count=st.integers(min_value=1, max_value=12),
    probe=st.integers(min_value=0, max_value=(1 << 32) - 1),
)
def test_lpm_matches_most_specific_installed(prefix_count, probe):
    rib = DeviceRib("A")
    lengths = list(range(8, 8 + prefix_count * 2, 2))
    installed = []
    for length in lengths:
        prefix = Prefix.from_address(IPAddress(4, probe), length)
        rib.install(route(str(prefix)))
        installed.append(prefix)
    hit = rib.lpm(IPAddress(4, probe))
    assert hit is not None
    assert hit[0] == max(installed, key=lambda p: p.length)


_POOL = [
    Prefix.parse(text)
    for text in (
        "0.0.0.0/0",
        "10.0.0.0/8",
        "10.1.0.0/16",
        "10.1.2.0/24",
        "10.1.3.0/24",
        "10.1.2.7/32",
        "192.0.2.0/24",
    )
]
_TYPES = [ROUTE_TYPE_BEST, ROUTE_TYPE_ECMP, ROUTE_TYPE_CANDIDATE]
_VRFS = ["global", "red"]

_slot_entries = st.lists(
    st.tuples(st.sampled_from(["2.0.0.1", "3.0.0.1"]), st.sampled_from(_TYPES)),
    max_size=3,
)
_rib_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("install"),
            st.sampled_from(_POOL),
            st.sampled_from(_VRFS),
            st.sampled_from(["2.0.0.1", "3.0.0.1"]),
            st.sampled_from(_TYPES),
        ),
        st.tuples(
            st.just("replace"),
            st.sampled_from(_POOL),
            st.sampled_from(_VRFS),
            _slot_entries,
        ),
        st.tuples(
            st.just("clone"),
            st.dictionaries(
                st.sampled_from(_POOL),
                st.lists(st.sampled_from(_POOL), min_size=1, max_size=2),
                max_size=2,
            ),
        ),
    ),
    max_size=12,
)


def _apply(rib, op, clones):
    kind = op[0]
    if kind == "install":
        _, prefix, vrf, nh, route_type = op
        rib.install(route(str(prefix), nh=nh), vrf=vrf, route_type=route_type)
    elif kind == "replace":
        _, prefix, vrf, entries = op
        rib.replace_prefix(
            vrf, prefix, [(route(str(prefix), nh=nh), t) for nh, t in entries]
        )
    else:
        rib.clone_slots(op[1], clones)


def _assert_index_matches_scan(rib):
    best_rows = [
        row for row in rib.all_rows() if row.route_type != ROUTE_TYPE_CANDIDATE
    ]
    for vrf in _VRFS + ["ghost"]:
        rows = [row for row in best_rows if row.vrf == vrf]
        held = {row.route.prefix for row in rows}
        assert rib.fib_prefixes(vrf) == tuple(
            p for p in rib.prefixes(vrf) if rib.routes_for(p, vrf)
        )
        assert set(rib.fib_prefixes(vrf)) == held
        for probe in [p.first_address for p in _POOL] + [
            IPAddress.parse("10.1.2.200"),
            IPAddress.parse("203.0.113.1"),
        ]:
            covering = [p for p in held if p.contains_address(probe)]
            hit = rib.lpm(probe, vrf)
            if not covering:
                assert hit is None
                continue
            longest = max(covering, key=lambda p: p.length)
            assert hit == (
                longest,
                [row.route for row in rows if row.route.prefix == longest],
            )
            # A slot holding only candidates never answers a lookup.
            assert any(t != ROUTE_TYPE_CANDIDATE for _, t in rib.entries_for(hit[0], vrf))


@settings(max_examples=150, deadline=None)
@given(ops=_rib_ops)
def test_fib_index_tracks_every_mutation(ops):
    """After each install/replace_prefix/clone_slots, ``lpm`` and
    ``fib_prefixes`` agree with linear scans over the RIB's rows."""
    rib = DeviceRib("A")
    clones = {}
    _assert_index_matches_scan(rib)
    for op in ops:
        _apply(rib, op, clones)
        _assert_index_matches_scan(rib)
