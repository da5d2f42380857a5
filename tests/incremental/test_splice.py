"""The copy-on-write splice against a slot-by-slot reference.

``IncrementalEngine`` derives each spliced device RIB from its base RIB
(``DeviceRib.derive``: copy the VRF tables, delete the covered base slots,
append the covered partial ones). The reference below rebuilds the RIB one
slot at a time through ``replace_prefix``, the way the engine used to. The
two must agree on everything a consumer can see: device, VRF and slot
order, every slot's entries, which base RIB objects are reused, the
dropped/installed/touched slots in order, and every count.
"""

from hypothesis import given, settings, strategies as st

from repro.incremental.blast import BlastRadius
from repro.incremental.engine import IncrementalEngine, SpliceResult
from repro.net.addr import as_prefix
from repro.routing.attributes import Route
from repro.routing.rib import (
    ROUTE_TYPE_BEST,
    ROUTE_TYPE_CANDIDATE,
    ROUTE_TYPE_ECMP,
    DeviceRib,
)

from tests.helpers import build_model

# -- the reference: today's result, one slot at a time --------------------------


def reference_slots(rib, blast=None):
    slots = {}
    for vrf in rib.vrfs if rib is not None else ():
        prefixes = rib.prefixes(vrf)
        if blast is not None:
            prefixes = [prefix for prefix in prefixes if blast.covers(prefix)]
        if prefixes:
            slots[vrf] = dict.fromkeys(prefixes)
    return slots


def reference_splice(base_ribs, partial_ribs, blast, full_devices=frozenset()):
    result = SpliceResult(device_ribs={})
    names = list(base_ribs)
    names.extend(sorted(set(partial_ribs) - set(base_ribs)))
    for name in names:
        base_rib = base_ribs.get(name)
        partial_rib = partial_ribs.get(name)
        if name in full_devices:
            replacement = partial_rib if partial_rib is not None else DeviceRib(name)
            result.device_ribs[name] = replacement
            result.affected_devices += 1
            result.dropped[name] = reference_slots(base_rib)
            result.installed[name] = reference_slots(replacement)
            result.spliced_slots += sum(
                len(prefixes) for prefixes in result.installed[name].values()
            )
            continue
        covered_base = reference_slots(base_rib, blast)
        covered_partial = reference_slots(partial_rib, blast)
        if not covered_base and not covered_partial and base_rib is not None:
            result.device_ribs[name] = base_rib
            result.reused_devices += 1
            result.reused_slots += sum(
                len(base_rib.prefixes(vrf)) for vrf in base_rib.vrfs
            )
            continue
        spliced = DeviceRib(name)
        if base_rib is not None:
            for vrf in base_rib.vrfs:
                covered = covered_base.get(vrf, ())
                for prefix in base_rib.prefixes(vrf):
                    if prefix not in covered:
                        spliced.replace_prefix(
                            vrf, prefix, base_rib.entries_for(prefix, vrf)
                        )
                        result.reused_slots += 1
        for vrf, prefixes in covered_partial.items():
            for prefix in prefixes:
                spliced.replace_prefix(
                    vrf, prefix, partial_rib.entries_for(prefix, vrf)
                )
                result.spliced_slots += 1
        result.device_ribs[name] = spliced
        result.affected_devices += 1
        result.dropped[name] = covered_base
        result.installed[name] = covered_partial
    return result


# -- comparison -----------------------------------------------------------------


def layout(rib):
    """Everything a reader sees of one RIB, order included."""
    return [
        (vrf, [(prefix, rib.entries_for(prefix, vrf)) for prefix in rib.prefixes(vrf)])
        for vrf in rib.vrfs
    ]


def ordered(slots_of):
    return [
        (name, [(vrf, list(prefixes)) for vrf, prefixes in slots.items()])
        for name, slots in slots_of.items()
    ]


def assert_same_splice(new, ref, base_ribs):
    assert list(new.device_ribs) == list(ref.device_ribs)
    for name, rib in ref.device_ribs.items():
        assert layout(new.device_ribs[name]) == layout(rib), name
        base_rib = base_ribs.get(name)
        assert (new.device_ribs[name] is base_rib) == (rib is base_rib), name
    assert ordered(new.dropped) == ordered(ref.dropped)
    assert ordered(new.installed) == ordered(ref.installed)
    assert new.touched == ref.touched
    for count in ("affected_devices", "reused_devices", "spliced_slots", "reused_slots"):
        assert getattr(new, count) == getattr(ref, count), count


# -- drawn splices --------------------------------------------------------------

PREFIXES = [
    as_prefix(text)
    for text in (
        "10.0.0.0/8",
        "10.1.0.0/16",
        "10.1.1.0/24",
        "10.2.0.0/16",
        "192.0.2.0/24",
        "2001:db8::/32",
        "2001:db8:1::/48",
        "2001:db9::/32",
    )
]
VRFS = ["global", "red", "blue"]
DEVICES = ["A", "B", "C", "D"]
TYPES = [ROUTE_TYPE_BEST, ROUTE_TYPE_ECMP, ROUTE_TYPE_CANDIDATE]

rows = st.lists(
    st.tuples(
        st.sampled_from(VRFS),
        st.sampled_from(PREFIXES),
        st.integers(100, 103),
        st.sampled_from(TYPES),
    ),
    max_size=14,
)


def make_rib(name, slot_rows):
    rib = DeviceRib(name)
    for vrf, prefix, local_pref, route_type in slot_rows:
        rib.install(Route(prefix=prefix, local_pref=local_pref), vrf, route_type)
    return rib


def make_ribs(drawn):
    return {name: make_rib(name, slot_rows) for name, slot_rows in drawn.items()}


@settings(max_examples=200, deadline=None)
@given(
    base=st.dictionaries(st.sampled_from(DEVICES), rows, max_size=4),
    partial=st.dictionaries(st.sampled_from(DEVICES + ["E"]), rows, max_size=5),
    affected=st.lists(st.sampled_from(PREFIXES), unique=True, max_size=3),
    all_v6=st.booleans(),
    full=st.sets(st.sampled_from(DEVICES + ["E"]), max_size=2),
)
def test_drawn_splices_match_the_reference(base, partial, affected, all_v6, full):
    compare(base, partial, affected, all_v6, full)


def compare(base, partial, affected, all_v6=False, full=()):
    """Splice drawn RIBs both ways and compare; returns the new result."""
    base_ribs, partial_ribs = make_ribs(base), make_ribs(partial)
    blast = BlastRadius(
        affected_prefixes=tuple(as_prefix(p) for p in affected),
        include_all_v6=all_v6,
    )
    engine = IncrementalEngine(build_model([("A", 100)], []))
    new = engine.splice(base_ribs, partial_ribs, blast, full_devices=full)
    ref = reference_splice(base_ribs, partial_ribs, blast, frozenset(full))
    assert_same_splice(new, ref, base_ribs)
    return new


P8, P16, P24, P16B, V6, V6_48 = (str(PREFIXES[i]) for i in (0, 1, 2, 3, 5, 6))


def row(vrf, prefix, local_pref=100, route_type=ROUTE_TYPE_BEST):
    return (vrf, as_prefix(prefix), local_pref, route_type)


class TestHandMadeSplices:
    def test_fully_covered_vrf_without_partial_slots_disappears(self):
        result = compare(
            {"A": [row("red", P24), row("global", P16B), row("red", P16)]},
            {"A": [row("global", P24, 101)]},
            [P16],
        )
        assert result.device_ribs["A"].vrfs == ["global"]

    def test_fully_covered_vrf_refilled_by_the_partial_moves_last(self):
        result = compare(
            {"A": [row("red", P24), row("global", P16B)]},
            {"A": [row("red", P24, 101)]},
            [P16],
        )
        assert result.device_ribs["A"].vrfs == ["global", "red"]

    def test_device_only_in_the_partial_run(self):
        result = compare(
            {"A": [row("global", P16B)]},
            {"E": [row("global", P24), row("global", P16B)], "A": []},
            [P16],
        )
        assert list(result.device_ribs) == ["A", "E"]
        assert result.device_ribs["E"].prefixes() == [as_prefix(P24)]

    def test_full_devices_are_replaced_wholesale(self):
        compare(
            {"A": [row("global", P16B), row("red", P24)], "B": [row("global", P24)]},
            {"A": [row("global", P8)]},
            [P24],
            full=["A", "B"],
        )

    def test_all_v6_radius(self):
        result = compare(
            {"A": [row("global", V6), row("global", P24), row("global", V6_48)]},
            {"A": [row("global", V6_48, 101)]},
            [],
            all_v6=True,
        )
        assert result.device_ribs["A"].prefixes() == [
            as_prefix(P24),
            as_prefix(V6_48),
        ]

    def test_touched_is_computed_once(self):
        result = compare({"A": [row("global", P24)]}, {"A": []}, [P24])
        assert result.touched is result.touched


# -- copy-on-write ---------------------------------------------------------------


def contents(rib):
    return layout(rib), rib.route_count()


def test_writes_to_a_spliced_rib_leave_base_and_partial_alone():
    base = make_rib("A", [row("global", P16B), row("global", P24), row("red", P8)])
    partial = make_rib("A", [row("global", P24, 101), row("global", P16, 102)])
    before = contents(base), contents(partial)
    engine = IncrementalEngine(build_model([("A", 100)], []))
    spliced = engine.splice({"A": base}, {"A": partial}, BlastRadius(
        affected_prefixes=(as_prefix(P16),)
    )).device_ribs["A"]
    assert spliced is not base

    # one write per kind of slot: kept from the base, taken from the
    # partial run, and new
    extra = Route(prefix=as_prefix(P16B), local_pref=200)
    spliced.install(extra)
    spliced.install(Route(prefix=as_prefix(P24), local_pref=200))
    spliced.install(Route(prefix=as_prefix(P8), local_pref=200), "red")
    spliced.install(Route(prefix=as_prefix(V6), local_pref=200), "blue")
    spliced.replace_prefix("global", as_prefix(P16), [(extra, ROUTE_TYPE_ECMP)])
    spliced.replace_prefix("red", as_prefix(P8), [])
    assert (contents(base), contents(partial)) == before
    assert spliced.route_count() == 6
