"""The splice against slot-by-slot definitions of what it must produce.

``IncrementalEngine.splice`` compares the partial run with the base at the
covered slots (``rib_diff``) and derives each changed device RIB from its
base RIB (``DeviceRib.derive``: copy the VRF tables, delete the differing
base slots, append the differing partial ones). Three definitions pin it:

* the diff: ``dropped``/``installed`` are the whole-map ``rib_diff`` of
  base and partial restricted to the covered slots (every slot of a full
  device, and of a device only one side holds);
* the contents: slot by slot, a spliced RIB holds the partial run's entries
  at a covered slot and the base run's elsewhere, and the spliced map holds
  exactly the partial run's devices;
* the layout: the reference below rebuilds each RIB one slot at a time
  through ``replace_prefix``. The two must agree on everything a consumer
  can see: device, VRF and slot order, every slot's entries, which base RIB
  objects are reused, the dropped/installed/touched slots in order, and
  every count.
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
    rib_diff,
)

from tests.helpers import build_model

# -- the references -------------------------------------------------------------


def slot_entries(rib):
    """``(vrf, prefix) -> entries`` in table order (nothing for no RIB)."""
    if rib is None:
        return {}
    return {
        (vrf, prefix): rib.entries_for(prefix, vrf)
        for vrf in rib.vrfs
        for prefix in rib.prefixes(vrf)
    }


def compared(name, base_ribs, partial_ribs, blast, full_devices):
    """Whether the splice compares a slot of device ``name``."""
    if name in full_devices or name not in base_ribs or name not in partial_ribs:
        return lambda slot: True
    return lambda slot: blast.covers(slot[1])


def as_slots(slots):
    """``[(vrf, prefix), ...]`` grouped per VRF, the shape of ``Slots``."""
    grouped = {}
    for vrf, prefix in slots:
        grouped.setdefault(vrf, {})[prefix] = None
    return grouped


def reference_splice(base_ribs, partial_ribs, blast, full_devices=frozenset()):
    result = SpliceResult(device_ribs={})
    for name, base_rib in base_ribs.items():
        counted = compared(name, base_ribs, partial_ribs, blast, full_devices)
        before = slot_entries(base_rib)
        after = slot_entries(partial_ribs.get(name))
        gone = [s for s, e in before.items() if counted(s) and after.get(s) != e]
        if gone:
            result.dropped[name] = as_slots(gone)
    for name, partial_rib in partial_ribs.items():
        base_rib = base_ribs.get(name)
        counted = compared(name, base_ribs, partial_ribs, blast, full_devices)
        before, after = slot_entries(base_rib), slot_entries(partial_rib)
        new = [s for s, e in after.items() if counted(s) and before.get(s) != e]
        if new:
            result.installed[name] = as_slots(new)
        gone = {
            (vrf, prefix)
            for vrf, prefixes in result.dropped.get(name, {}).items()
            for prefix in prefixes
        }
        if base_rib is not None:
            result.reused_slots += len(before) - len(gone)
            if not gone and not new:
                result.device_ribs[name] = base_rib
                result.reused_devices += 1
                continue
        spliced = DeviceRib(name)
        for (vrf, prefix), entries in before.items():
            if (vrf, prefix) not in gone:
                spliced.replace_prefix(vrf, prefix, entries)
        for vrf, prefix in new:
            spliced.replace_prefix(vrf, prefix, after[vrf, prefix])
        result.device_ribs[name] = spliced
        result.affected_devices += 1
    result.spliced_slots = sum(map(len, result.touched.values()))
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


def flat(slots_of):
    return [
        (name, vrf, prefix)
        for name, slots in slots_of.items()
        for vrf, prefixes in slots.items()
        for prefix in prefixes
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


def assert_is_the_covered_diff(new, base_ribs, partial_ribs, blast, full):
    """The splice's slots are the whole-map diff at the compared slots, and
    its RIBs hold the partial run's entries there and the base's elsewhere."""
    dropped, installed = rib_diff(base_ribs, partial_ribs)
    for mine, whole_map in ((new.dropped, dropped), (new.installed, installed)):
        assert flat(mine) == [
            (name, vrf, prefix)
            for name, vrf, prefix in flat(whole_map)
            if compared(name, base_ribs, partial_ribs, blast, full)((vrf, prefix))
        ]
    assert list(new.device_ribs) == list(partial_ribs)
    for name, spliced in new.device_ribs.items():
        counted = compared(name, base_ribs, partial_ribs, blast, full)
        before = slot_entries(base_ribs.get(name))
        after = slot_entries(partial_ribs[name])
        expected = {
            slot: entries
            for slot in {**before, **after}
            for entries in [after.get(slot) if counted(slot) else before.get(slot)]
            if entries
        }
        assert slot_entries(spliced) == expected, name
        # a slot the splice did not install keeps the base's entry list
        installed = new.installed.get(name, {})
        for vrf, table in spliced._tables.items():
            for prefix, entries in table.items():
                if prefix not in installed.get(vrf, ()):
                    assert entries is base_ribs[name]._tables[vrf][prefix]


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
    cover_all=st.booleans(),
    full=st.sets(st.sampled_from(DEVICES + ["E"]), max_size=2),
)
def test_drawn_splices_match_the_reference(
    base, partial, affected, all_v6, cover_all, full
):
    compare(base, partial, affected, all_v6, full, cover_all)


@settings(max_examples=100, deadline=None)
@given(
    base=st.dictionaries(st.sampled_from(DEVICES), rows, min_size=1, max_size=4),
    affected=st.lists(st.sampled_from(PREFIXES), unique=True, max_size=3),
)
def test_a_partial_run_equal_at_the_covered_slots_changes_nothing(base, affected):
    """Re-simulated slots equal to the base are neither dropped nor installed."""
    base_ribs = make_ribs(base)
    blast = BlastRadius(affected_prefixes=tuple(affected))
    # the partial run: the covered slots again, new objects in another order
    partial_ribs = {}
    for name, rib in base_ribs.items():
        again = partial_ribs[name] = DeviceRib(name)
        for (vrf, prefix), entries in reversed(slot_entries(rib).items()):
            if blast.covers(prefix):
                again.replace_prefix(
                    vrf, prefix, [(r.evolve(), t) for r, t in entries]
                )
    result = check(base_ribs, partial_ribs, blast)
    assert result.dropped == result.installed == {}
    assert all(result.device_ribs[name] is rib for name, rib in base_ribs.items())
    assert result.spliced_slots == result.affected_devices == 0


def compare(base, partial, affected, all_v6=False, full=(), cover_all=False):
    """Splice drawn RIBs and hold the result against the references."""
    if cover_all:
        blast = BlastRadius(widened=True, reasons=("drawn",))
    else:
        blast = BlastRadius(
            affected_prefixes=tuple(as_prefix(p) for p in affected),
            include_all_v6=all_v6,
        )
    return check(make_ribs(base), make_ribs(partial), blast, full)


def check(base_ribs, partial_ribs, blast, full=()):
    engine = IncrementalEngine(build_model([("A", 100)], []))
    new = engine.splice(base_ribs, partial_ribs, blast, full_devices=full)
    full = frozenset(full)
    assert_is_the_covered_diff(new, base_ribs, partial_ribs, blast, full)
    ref = reference_splice(base_ribs, partial_ribs, blast, full)
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

    def test_an_equal_covered_slot_keeps_its_base_list_and_place(self):
        result = compare(
            {"A": [row("global", P16), row("global", P24), row("global", P16B)]},
            {"A": [row("global", P24, 101), row("global", P16)]},
            [P16],
        )
        spliced = result.device_ribs["A"]
        assert spliced.prefixes() == [as_prefix(p) for p in (P16, P16B, P24)]
        assert result.installed == {"A": {"global": {as_prefix(P24): None}}}
        assert result.spliced_slots == 1 and result.reused_slots == 2

    def test_device_only_in_the_partial_run(self):
        result = compare(
            {"A": [row("global", P16B)]},
            {"E": [row("global", P24), row("global", P16B)], "A": []},
            [P16],
        )
        assert list(result.device_ribs) == ["E", "A"]  # the partial run's order
        assert result.device_ribs["E"].prefixes() == [as_prefix(P24), as_prefix(P16B)]

    def test_device_only_in_the_base_is_dropped_whole(self):
        result = compare(
            {"A": [row("global", P16B)], "B": [row("global", P16B), row("red", P24)]},
            {"A": [row("global", P16B)]},
            [P16],
        )
        assert list(result.device_ribs) == ["A"]
        assert set(result.touched) == {"B"}

    def test_full_devices_are_replaced_wholesale(self):
        result = compare(
            {"A": [row("global", P16B), row("red", P24)], "B": [row("global", P24)]},
            {"A": [row("global", P8)]},
            [P24],
            full=["A", "B"],
        )
        assert result.device_ribs["A"].prefixes() == [as_prefix(P8)]
        assert list(result.device_ribs) == ["A"]

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
