"""The global RIB view against the eagerly flattened table.

The reference is the table a global RIB used to be: every device's rows in
RIB order, less the candidates. A view must count that table without
building it, build exactly it when read, compare equal to it, and refuse to
be read once a RIB under it has changed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addr import IPAddress, Prefix
from repro.routing.attributes import Route
from repro.routing.rib import (
    ROUTE_TYPE_BEST,
    ROUTE_TYPE_CANDIDATE,
    ROUTE_TYPE_ECMP,
    DeviceRib,
    GlobalRib,
    GlobalRibView,
    StaleViewError,
)

_POOL = [
    Prefix.parse(text)
    for text in ("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "192.0.2.0/24")
]
_TYPES = [ROUTE_TYPE_BEST, ROUTE_TYPE_ECMP, ROUTE_TYPE_CANDIDATE]
_VRFS = ["global", "red", "blue"]
_DEVICES = ["A", "B", "C"]

#: per VRF, per prefix, the (next hop, route type) entries of a slot; an
#: empty entry list leaves no slot, so whole VRFs and RIBs come out empty
_contents = st.dictionaries(
    st.sampled_from(_VRFS),
    st.dictionaries(
        st.sampled_from(_POOL),
        st.lists(
            st.tuples(st.sampled_from(["2.0.0.1", "3.0.0.1"]), st.sampled_from(_TYPES)),
            max_size=3,
        ),
        max_size=4,
    ),
    max_size=3,
)


def build(device, contents):
    rib = DeviceRib(device)
    for vrf, table in contents.items():
        for prefix, entries in table.items():
            rib.replace_prefix(
                vrf,
                prefix,
                [(Route(prefix=prefix, nexthop=IPAddress.parse(nh)), t) for nh, t in entries],
            )
    return rib


_worlds = st.fixed_dictionaries({name: _contents for name in _DEVICES})
_covered = st.sets(st.sampled_from(_POOL))


def eager(ribs):
    """The flattened best/ECMP table, built row by row."""
    return [
        row
        for rib in ribs
        for row in rib.all_rows()
        if row.route_type != ROUTE_TYPE_CANDIDATE
    ]


def splice(base_ribs, partial_ribs, covered):
    """Each RIB less its ``covered`` slots plus the partial run's, derived."""

    def pick(slots):
        return slots & covered

    ribs, dropped, installed = {}, {}, {}
    for name, base in base_ribs.items():
        gone, new = base.slots(pick), partial_ribs[name].slots(pick)
        if not gone and not new:
            ribs[name] = base
            continue
        dropped[name], installed[name] = gone, new
        ribs[name] = base.derive(gone, partial_ribs[name], new)
    return ribs, dropped, installed


def assert_is_the_eager_table(view, ribs):
    expected = eager(ribs)
    assert len(view) == len(expected)
    assert not view.built
    rows = list(view)
    assert view.built
    assert rows == expected
    assert all(a.route is b.route for a, b in zip(rows, expected))
    assert view == GlobalRib(expected) and GlobalRib(expected) == view


@settings(max_examples=150, deadline=None)
@given(base=_worlds, partial=_worlds, covered=_covered)
def test_a_view_is_the_eager_table_counted_without_building_it(base, partial, covered):
    base_ribs = {name: build(name, contents) for name, contents in base.items()}
    partial_ribs = {name: build(name, contents) for name, contents in partial.items()}

    table = GlobalRib.from_device_ribs(base_ribs.values())
    assert len(table) == sum(rib.route_count() for rib in base_ribs.values())
    base_view = table.best_routes()
    assert not table.built
    assert_is_the_eager_table(base_view, base_ribs.values())

    ribs, dropped, installed = splice(base_ribs, partial_ribs, covered)
    patched = GlobalRibView(
        GlobalRib.from_device_ribs(base_ribs.values()).best_routes(),
        base_ribs,
        ribs,
        dropped,
        installed,
    )
    assert len(patched) == len(eager(ribs.values()))
    assert_is_the_eager_table(patched, ribs.values())
    assert len(patched) == len(patched.rows)


@settings(max_examples=50, deadline=None)
@given(base=_worlds, device=st.sampled_from(_DEVICES), read_first=st.booleans())
def test_a_view_refuses_to_be_read_after_its_ribs_change(base, device, read_first):
    ribs = {name: build(name, contents) for name, contents in base.items()}
    view = GlobalRib.from_device_ribs(ribs.values()).best_routes()
    if read_first:
        len(view), list(view)
    ribs[device].install(Route(prefix=_POOL[0]), "global")
    for read in (len, list, GlobalRib.best_routes):
        with pytest.raises(StaleViewError):
            read(view)
