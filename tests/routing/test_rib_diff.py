"""``rib_diff`` against the slot-by-slot definition of a RIB difference.

A slot differs when its entry list on one side is not the entry list on the
other (a slot held on one side only differs too). ``dropped`` must name
exactly the differing base slots in base table order, ``installed`` the
differing updated slots in updated table order, and the patch they make of
the base global RIB must be the rebuilt updated table. With a ``covers``
filter the diff is the same one restricted to the covered slots of the
devices both sides hold (every slot of a ``whole`` device, and of a device
one side lacks).
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.addr import as_prefix
from repro.routing.rib import (
    ROUTE_TYPE_ECMP,
    DeviceRib,
    GlobalRib,
    GlobalRibView,
    rib_diff,
)
from repro.routing.simulator import simulate_routes
from repro.workload import WanParams, generate_input_routes, generate_wan


@pytest.fixture(scope="module")
def base_ribs():
    model, inventory = generate_wan(WanParams(regions=2, cores_per_region=2, seed=3))
    routes = generate_input_routes(inventory, n_prefixes=16, seed=5)
    return simulate_routes(model, routes).device_ribs


#: what happens to a device's RIB on the updated side
SAME, COPY, GONE = "same object", "equal copy", "base only"
#: what an edit does to one slot of a copied RIB
MODIFY, WITHDRAW, DEMOTE = "modify", "withdraw", "demote"
EXTRA = as_prefix("198.51.100.0/24")


def copy_of(rib, reverse=False):
    """An equal RIB of new objects, as a re-simulation builds it; ``reverse``
    lists each table's slots the other way round."""
    copy = DeviceRib(rib.device)
    for vrf in rib.vrfs:
        for prefix in rib.prefixes(vrf)[:: -1 if reverse else 1]:
            copy.replace_prefix(
                vrf,
                prefix,
                [(r.with_prefix(prefix), t) for r, t in rib.entries_for(prefix, vrf)],
            )
    return copy


def extra_route(ribs):
    """A route for a prefix no RIB holds."""
    return next(next(iter(ribs.values())).all_rows()).route.with_prefix(EXTRA)


def slot_entries(ribs):
    """``(device, vrf, prefix) -> entries``, in table order."""
    return {
        (name, vrf, prefix): rib.entries_for(prefix, vrf)
        for name, rib in ribs.items()
        for vrf in rib.vrfs
        for prefix in rib.prefixes(vrf)
    }


def flat(slots_by_device):
    return [
        (name, vrf, prefix)
        for name, slots in slots_by_device.items()
        for vrf, prefixes in slots.items()
        for prefix in prefixes
    ]


def draw_updated(data, base_ribs):
    updated = {}
    for name, rib in base_ribs.items():
        fate = data.draw(st.sampled_from([SAME, COPY, COPY, GONE]), label=name)
        if fate == SAME:
            updated[name] = rib
        elif fate == COPY:
            reverse = data.draw(st.booleans(), label=f"{name} reversed")
            copy = updated[name] = copy_of(rib, reverse)
            slots = [(vrf, p) for vrf in rib.vrfs for p in rib.prefixes(vrf)]
            edits = data.draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(slots),
                        st.sampled_from([MODIFY, WITHDRAW, DEMOTE]),
                    ),
                    max_size=3,
                ),
                label=f"{name} edits",
            )
            for (vrf, prefix), edit in edits:
                entries = copy.entries_for(prefix, vrf)
                if edit == MODIFY:
                    entries = [(r.evolve(local_pref=777), t) for r, t in entries]
                elif edit == DEMOTE:
                    entries = [(r, ROUTE_TYPE_ECMP) for r, _ in entries]
                else:
                    entries = []
                copy.replace_prefix(vrf, prefix, entries)
            for vrf in data.draw(
                st.sets(st.sampled_from(["global", "red"])), label=f"{name} adds"
            ):
                copy.install(extra_route(base_ribs), vrf)  # maybe in a new VRF
    if data.draw(st.booleans(), label="newcomer"):
        newcomer = DeviceRib("newcomer")
        newcomer.install(extra_route(base_ribs))
        devices = list(updated.items())
        devices.insert(
            data.draw(st.integers(0, len(devices)), label="newcomer at"),
            ("newcomer", newcomer),
        )
        updated = dict(devices)
    return updated


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_rib_diff_is_the_slot_by_slot_diff(base_ribs, data):
    updated = draw_updated(data, base_ribs)
    dropped, installed = rib_diff(base_ribs, updated)

    before, after = slot_entries(base_ribs), slot_entries(updated)
    # exactly the differing slots, in table order
    assert flat(dropped) == [s for s, e in before.items() if after.get(s) != e]
    assert flat(installed) == [s for s, e in after.items() if before.get(s) != e]

    base = GlobalRib.from_device_ribs(base_ribs.values()).best_routes()
    view = GlobalRibView(base, base_ribs, updated, dropped, installed)
    rebuilt = GlobalRib.from_device_ribs(updated.values()).best_routes()
    patched = Counter(row.identity() for row in base)
    patched.subtract(row.identity() for row in view.dropped)
    patched.update(row.identity() for row in view.installed)
    assert min(patched.values(), default=0) >= 0
    assert +patched == Counter(row.identity() for row in rebuilt)
    assert len(view) == len(rebuilt)
    for rows, table, slots in (
        (view.dropped, base, set(flat(dropped))),
        (view.installed, rebuilt, set(flat(installed))),
    ):
        assert rows == [r for r in table if (r.device, r.vrf, r.route.prefix) in slots]

    prefixes = sorted({p for rib in base_ribs.values() for p in rib.prefixes()})
    covered = data.draw(st.sets(st.sampled_from(prefixes + [EXTRA])), label="covered")
    whole = data.draw(st.sets(st.sampled_from(sorted(base_ribs))), label="whole")
    asked = []

    def covers(prefix):
        asked.append(prefix)
        return prefix in covered

    def compared(name, vrf, prefix):
        both = name in base_ribs and name in updated
        return prefix in covered or name in whole or not both

    filtered = rib_diff(base_ribs, updated, covers, whole=whole)
    for mine, everything in zip(filtered, (dropped, installed)):
        assert flat(mine) == [s for s in flat(everything) if compared(*s)]
    assert len(asked) == len(set(asked))  # once per distinct prefix


def test_equal_ribs_of_new_objects_have_no_diff(base_ribs):
    copies = {name: copy_of(rib) for name, rib in base_ribs.items()}
    assert rib_diff(base_ribs, copies) == ({}, {})
    assert rib_diff(base_ribs, base_ribs) == ({}, {})
    assert rib_diff(base_ribs, {}) == (
        {
            name: {vrf: dict.fromkeys(rib.prefixes(vrf)) for vrf in rib.vrfs}
            for name, rib in base_ribs.items()
        },
        {},
    )
