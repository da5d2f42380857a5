"""The delta evaluator is the materialised evaluator.

When ``updated`` is a :class:`GlobalRibView` made as a patch of ``base``,
RCL compares ``PRE`` and ``POST`` through the rows the patch dropped and
installed. The reference is the same intent on ``GlobalRib(list(view))``
— a plain table with the same rows in the same order, which takes the code
every other RIB takes. The two must agree field for field: verdict, violations, scopes,
messages and sample rows.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from benchmarks.test_table2_change_types import build_plans
from repro.core.change_plan import ChangePlan
from repro.core.pipeline import ChangeVerifier
from repro.incremental.blast import BlastRadius
from repro.incremental.engine import (
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_WIDENED,
    IncrementalEngine,
)
from repro.net.addr import as_prefix
from repro.rcl import RclTypeError, parse, verify
from repro.routing.inputs import inject_external_route
from repro.routing.rib import (
    ROUTE_TYPE_ECMP,
    DeviceRib,
    GlobalRib,
    GlobalRibView,
    UnknownFieldError,
    rib_diff,
)
from repro.routing.simulator import simulate_routes
from repro.workload import (
    WanParams,
    generate_input_routes,
    generate_spec_corpus,
    generate_wan,
)

from tests.helpers import build_model


@pytest.fixture(scope="module")
def wan():
    model, inventory = generate_wan(WanParams(regions=2, cores_per_region=3, seed=7))
    routes = generate_input_routes(inventory, n_prefixes=48, seed=11)
    return model, inventory, routes


@pytest.fixture(scope="module")
def by_mode(wan):
    """A prepared verifier and its Table-2 plans, by how it serves them."""
    model, inventory, routes = wan
    verifier = ChangeVerifier(model, routes)
    verifier.prepare_base()
    candidates = list(build_plans(model, inventory, routes).values())
    candidates.append(raise_local_pref(model, inventory, routes))
    plans = {}
    for plan in candidates:
        plans.setdefault(verifier.simulate_plan(plan)[1].mode, []).append(plan)
    return verifier, plans


@pytest.fixture(scope="module")
def bounded(by_mode):
    """A prepared verifier and the Table-2 plans it splices."""
    verifier, plans = by_mode
    # a new static route, a new announcement, changed attributes everywhere
    assert len(plans[MODE_INCREMENTAL]) >= 3
    return verifier, plans[MODE_INCREMENTAL]


@pytest.fixture(scope="module")
def widened(by_mode):
    """The Table-2 plans it re-simulates in full, patched by a RIB diff.

    New links, a new router, an IS-IS change, a policy without a prefix
    constraint, and a retag no route matches: a patch of no slot at all.
    """
    verifier, plans = by_mode
    assert len(plans[MODE_WIDENED]) >= 4
    return verifier, plans[MODE_WIDENED]


@pytest.fixture(scope="module")
def harnessed(bounded, widened):
    """The verifier and every plan it serves through a patch."""
    verifier, plans = bounded
    return verifier, plans + widened[1]


def raise_local_pref(model, inventory, routes):
    """Prefer one ISP prefix at one border: its rows change on every router."""
    border = inventory.borders[0]
    device = model.device(border)
    isp = next(p.peer for p in device.peers if p.remote_asn != device.asn)
    prefix = next(str(r.route.prefix) for r in routes if r.router == isp)
    address, length = prefix.split("/")
    if device.vendor_name == "vendor-a":
        commands = [
            f"ip prefix-list DELTA permit {prefix}",
            "route-map ISP-IN permit 9",
            " match ip prefix-list DELTA",
            " set local-preference 150",
        ]
    else:
        commands = [
            f"ip ip-prefix DELTA index 10 permit {address} {length}",
            "route-policy ISP-IN permit node 9",
            " if-match ip-prefix DELTA",
            " apply local-preference 150",
        ]
    return ChangePlan(
        name="raise-local-pref",
        change_type="route-attributes-modification",
        device_commands={border: commands},
    )


def fresh_views(served):
    """``(base table, view)`` per plan; the views not yet materialised."""
    verifier, plans = served
    base = verifier.base_world.global_rib
    for plan in plans:
        view = verifier.simulate_plan(plan)[0].global_rib
        assert isinstance(view, GlobalRibView) and view.base is base
        yield base, view


@pytest.fixture(scope="module")
def views(harnessed):
    return list(fresh_views(harnessed))


def outcome(result):
    return (
        result.satisfied,
        [(v.expression, v.scope, v.message, v.sample_rows) for v in result.violations],
    )


def assert_same_as_materialised(spec, base, view):
    """Both evaluators on ``spec``; returns the (shared) verdict."""
    delta = verify(spec, base, view)
    reference = verify(spec, base, GlobalRib(list(view)))
    assert outcome(delta) == outcome(reference), spec
    return delta.satisfied


def hand_written(view):
    """Specs over every ``ast.Intent`` node, named after this view's change."""
    changed = (view.installed or view.dropped or view.base.rows)[0]
    device, prefix = changed.device, str(changed.route.prefix)
    touched = {row.device for row in view.installed + view.dropped}
    other = next((r.device for r in view.base if r.device not in touched), device)
    return [
        # bare comparisons, both operators, both worlds on either side
        "PRE = POST",
        "PRE != POST",
        "POST = PRE",
        "PRE = PRE",
        "POST != POST",
        # guards: on and off the change, nested, composite predicates
        f"device = {device} => PRE = POST",
        f"device = {other} => PRE = POST",
        f"not prefix = {prefix} => PRE = POST",
        f"prefix = {prefix} => PRE != POST",
        f"device = {device} => prefix = {prefix} => PRE = POST",
        f"device = {device} => not prefix = {prefix} => PRE = POST",
        f"device = {device} or device = {other} => PRE = POST",
        f"device in {{{device}, {other}}} and routeType = BEST => PRE = POST",
        f'device matches "{device[:4]}.*" imply localPref >= 0 => PRE = POST',
        # || chains: equal on both sides, unequal, reordered, one-sided
        f"PRE || device = {device} = POST || device = {device}",
        f"(PRE || device = {device}) || routeType = BEST = "
        f"(POST || device = {device}) || routeType = BEST",
        f"(PRE || device = {device}) || routeType = BEST = "
        f"(POST || routeType = BEST) || device = {device}",
        f"PRE || device = {device} = POST || device = {other}",
        f"PRE || device = {device} = POST",
        # equal nodes (1 == 1.0), different rows of a text field
        "PRE || localPref = 100 = POST || localPref = 100.0",
        "PRE || aspath = 65001 = POST || aspath = 65001.0",
        f"prefix = {prefix} => PRE || device = {device} != POST || device = {device}",
        # concatenation
        "PRE ++ POST = POST ++ PRE",
        f"device = {device} => PRE ++ POST = POST",
        f"(PRE ++ POST) || prefix = {prefix} |> distCnt(nexthop) = 1",
        # aggregates
        "POST |> count() = PRE |> count()",
        f"prefix = {prefix} => POST |> count() > PRE |> count()",
        f"prefix = {prefix} => POST |> distVals(localPref) = {{100}}",
        f"device = {device} => POST |> distCnt(prefix) = PRE |> distCnt(prefix)",
        f"device = {device} => POST |> distVals(communities) = PRE |> distVals(communities)",
        "PRE |> count() - POST |> count() = 0",
        # forall, by field and by value list
        "forall device: PRE = POST",
        "forall prefix: PRE |> count() = POST |> count()",
        f"forall device in {{{device}, {other}}}: PRE = POST",
        f"forall device in {{{device}, {other}}}: prefix = {prefix} => PRE != POST",
        f"forall device in {{{device}}}: forall prefix: PRE = POST",
        # and / or / imply / not
        f"(device = {device} => PRE = POST) and (device = {other} => PRE = POST)",
        f"(device = {device} => PRE = POST) or (device = {other} => PRE = POST)",
        "(PRE = POST) imply (PRE |> count() = 0)",
        f"(device = {other} => PRE = POST) imply (device = {device} => PRE = POST)",
        "not (PRE = POST)",
        f"not (device = {other} => PRE != POST)",
    ]


PAPER_USE_CASES = [
    # §4.3, with this WAN's device naming
    "forall device in {region0-rr0, region1-rr0}: forall prefix in "
    "{100.64.0.0/24, 100.64.1.0/24}: routeType = BEST => "
    "PRE |> distVals(nexthop) = POST |> distVals(nexthop)",
    "forall device in {region0-rr0, region0-border0}: "
    "POST || (communities has 64999:1) |> count() = 0",
    "forall device in {region0-rr0}: forall prefix: "
    "(PRE |> distVals(nexthop) = {1.2.3.4}) imply "
    "(POST |> distVals(nexthop) = {10.2.3.4})",
]


def test_every_intent_shape_agrees_with_the_materialised_evaluator(views):
    verdicts = set()
    for base, view in views:
        for spec in hand_written(view):
            verdicts.add(assert_same_as_materialised(spec, base, view))
    assert verdicts == {True, False}  # the corpus exercises both outcomes


def test_paper_use_cases_and_generated_corpus_agree(wan, views):
    _, inventory, _ = wan
    specs = PAPER_USE_CASES + generate_spec_corpus(inventory, n_specs=24)
    for base, view in views:
        for spec in specs:
            assert_same_as_materialised(spec, base, view)


def test_the_view_is_the_rebuilt_table_in_content_and_order(harnessed, widened):
    verifier, plans = harnessed
    base = verifier.base_world.global_rib
    for plan in plans:
        world = verifier.simulate_plan(plan)[0]
        view = world.global_rib
        rebuilt = GlobalRib.from_device_ribs(world.device_ribs.values()).best_routes()
        assert len(view) == len(rebuilt), plan.name  # by arithmetic
        assert view._rows is None
        # the decomposition the delta comparison stands on: the rebuilt
        # table is the base one minus `dropped` plus `installed` ...
        patched = Counter(row.identity() for row in base)
        patched.subtract(row.identity() for row in view.dropped)
        patched.update(row.identity() for row in view.installed)
        assert +patched == Counter(row.identity() for row in rebuilt), plan.name
        # ... and the patch lists its rows in the rebuilt table's order
        slots = {(r.device, r.vrf, r.route.prefix) for r in view.installed}
        assert view.installed == [
            r for r in rebuilt if (r.device, r.vrf, r.route.prefix) in slots
        ]
        assert view == rebuilt
        # a widened plan may change only what row identities leave out (IGP cost)
        assert view != base or plan in widened[1], plan.name


def test_a_guarded_comparison_reads_the_patch_and_nothing_else(harnessed):
    for base, view in fresh_views(harnessed):
        own = len(view.dropped) + len(view.installed)
        device = (view.installed or view.dropped or view.base.rows)[0].device
        for spec in (
            f"device = {device} => PRE = POST",
            "not prefix = 203.0.113.0/24 => PRE = POST",
            f"forall device in {{{device}, nowhere}}: routeType = BEST => PRE = POST",
        ):
            result = verify(spec, base, view)
            # every filter and every comparison passes over (part of) the
            # patch's rows, never over the tables
            assert result.rows_scanned <= 6 * own < len(base), spec
            assert result.rows_scanned or not own, spec
            assert view._rows is None, spec
        naive = verify(f"device = {device} => PRE = POST", base, GlobalRib(list(view)))
        assert naive.rows_scanned >= len(base) + len(view)


def hand_made(base_slots, partial_slots, covered):
    """Base table and view of one router ``A``; slots are (vrf, prefix, asn)."""
    base_ribs, partial = {"A": DeviceRib("A")}, {"A": DeviceRib("A")}
    for ribs, slots in ((base_ribs, base_slots), (partial, partial_slots)):
        for vrf, prefix, asn in slots:
            ribs["A"].install(inject_external_route("A", prefix, (asn,)).route, vrf)
    blast = BlastRadius(affected_prefixes=tuple(as_prefix(p) for p in covered))
    splice = IncrementalEngine(build_model([("A", 100)], [])).splice(
        base_ribs, partial, blast
    )
    base = GlobalRib.from_device_ribs(base_ribs.values()).best_routes()
    view = GlobalRibView(
        base, base_ribs, splice.device_ribs, splice.dropped, splice.installed
    )
    return base, view, splice


def test_row_order_follows_the_spliced_rib_across_vrfs():
    # the partial run lists the VRFs, and the prefixes, the other way round
    base, view, splice = hand_made(
        [("global", "10.1.0.0/16", 65001), ("global", "10.2.0.0/16", 65001),
         ("global", "10.3.0.0/16", 65001), ("red", "10.2.0.0/16", 65001),
         ("red", "10.4.0.0/16", 65001)],
        [("red", "10.3.0.0/16", 65002), ("red", "10.2.0.0/16", 65002),
         ("global", "10.3.0.0/16", 65002), ("global", "10.2.0.0/16", 65002)],
        covered=["10.2.0.0/16", "10.3.0.0/16"],
    )
    rebuilt = GlobalRib.from_device_ribs(splice.device_ribs.values()).best_routes()
    assert [str(row) for row in view.installed] == [
        str(row) for row in rebuilt if row.route.as_path == (65002,)
    ]
    assert [str(row) for row in view.dropped] == [
        str(row) for row in base if str(row.route.prefix) != "10.1.0.0/16"
        and (row.vrf, str(row.route.prefix)) != ("red", "10.4.0.0/16")
    ]
    assert len(view) == len(rebuilt) == 6
    # seven rows differ; both paths sample the same five, in table order
    assert not assert_same_as_materialised("PRE = POST", base, view)


def test_chain_keys_tell_literal_types_apart():
    """``Literal(65001) == Literal(65001.0)``, yet they filter text differently."""
    base, view, _ = hand_made(
        [("global", "10.1.0.0/16", 65001), ("global", "10.2.0.0/16", 65001)],
        [("global", "10.2.0.0/16", 65009)],
        covered=["10.2.0.0/16"],
    )
    # the shared 10.1/16 row passes the left filter and not the right one
    spec = "prefix = 10.1.0.0/16 => PRE || aspath = 65001 = POST || aspath = 65001.0"
    assert not assert_same_as_materialised(spec, base, view)
    assert assert_same_as_materialised(
        "PRE || aspath = 65001 = POST || aspath = 65001", base, view
    ) is False  # 10.2/16 moved to another path
    assert assert_same_as_materialised(
        "prefix = 10.1.0.0/16 => PRE || aspath = 65001 = POST || aspath = 65001",
        base,
        view,
    )


def test_a_view_of_another_base_is_just_a_table(views):
    base, view = views[0]
    stranger = GlobalRib(list(base))  # equal rows, but not what `view` patches
    assert outcome(verify("PRE = POST", stranger, view)) == outcome(
        verify("PRE = POST", stranger, GlobalRib(list(view)))
    )


def test_unknown_fields_are_rejected_before_any_row_is_read(views):
    base, view = views[0]
    for spec in ("bogus = 1 => PRE = POST", "device = nowhere and bogus = 1 => PRE = POST"):
        for updated in (view, GlobalRib(list(view)), GlobalRib([])):
            with pytest.raises(UnknownFieldError):
                verify(spec, base, updated)


#: type errors a guard raises whether or not any row reaches it
TYPE_ERRORS = [
    "communities < 5 => PRE = POST",
    "device contains x => PRE = POST",
    'communities matches "a.*" => PRE = POST',
]


def test_type_errors_are_rejected_before_any_row_is_read(wan, small_base):
    model, base_ribs, base, _ = small_base
    # a re-simulation of the base: equal RIBs of new objects, a patch of no slot
    again = simulate_routes(model, wan[2]).device_ribs
    view = GlobalRibView(base, base_ribs, again, *rib_diff(base_ribs, again))
    assert not view.dropped and not view.installed
    for spec in TYPE_ERRORS:
        for updated in (view, GlobalRib(list(view)), GlobalRib([])):
            with pytest.raises(RclTypeError):
                verify(spec, base, updated)


def test_a_verifier_without_incremental_compares_whole_tables(wan, widened):
    model, _, routes = wan
    verifier = ChangeVerifier(model, routes, incremental=False)
    for plan in widened[1]:
        world, stats = verifier.simulate_plan(plan)
        assert stats.mode == MODE_FULL
        assert world.global_rib.base is None, plan.name


def test_the_view_is_read_only(views):
    _, view = views[0]
    with pytest.raises(TypeError):
        view.add(view.installed[0])
    with pytest.raises(TypeError):
        view.extend([])


# -- drawn touched-slot sets --------------------------------------------------------


@pytest.fixture(scope="module")
def small_base(wan):
    model, _, routes = wan
    device_ribs = simulate_routes(model, routes).device_ribs
    table = GlobalRib.from_device_ribs(device_ribs.values()).best_routes()
    prefixes = sorted({p for rib in device_ribs.values() for p in rib.prefixes()})
    return model, device_ribs, table, prefixes


#: what a drawn partial run does to a covered slot of one device
KEEP, MODIFY, WITHDRAW, DEMOTE = "keep", "modify", "withdraw", "demote"

DRAWN_SPECS = [
    "PRE = POST",
    "PRE != POST",
    "forall device: PRE = POST",
    "routeType = BEST => PRE = POST",
    "localPref = 100 => PRE = POST",
    "PRE || localPref = 100 = POST || localPref = 100",
    "PRE || localPref = 100 = POST",
    "forall prefix: PRE |> distVals(localPref) = POST |> distVals(localPref)",
    "not (localPref = 777 => PRE = POST) or POST |> count() >= PRE |> count()",
]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_drawn_touched_slots_agree(small_base, data):
    model, base_ribs, base, prefixes = small_base
    covered = data.draw(
        st.lists(st.sampled_from(prefixes), min_size=1, max_size=4, unique=True),
        label="covered prefixes",
    )
    full = data.draw(st.sets(st.sampled_from(sorted(base_ribs)), max_size=1), label="full")
    partial = {}
    for name, base_rib in base_ribs.items():
        rib = partial[name] = DeviceRib(name)
        for prefix in covered:
            entries = base_rib.entries_for(prefix)
            fate = data.draw(
                st.sampled_from([KEEP, KEEP, MODIFY, WITHDRAW, DEMOTE]),
                label=f"{name} {prefix}",
            )
            if fate == MODIFY:
                entries = [(r.evolve(local_pref=777), t) for r, t in entries]
            elif fate == DEMOTE:
                entries = [(r, ROUTE_TYPE_ECMP) for r, t in entries]
            if entries and fate != WITHDRAW:
                rib.replace_prefix("global", prefix, entries)
    blast = BlastRadius(affected_prefixes=tuple(covered))
    splice = IncrementalEngine(model).splice(
        base_ribs, partial, blast, full_devices=full
    )
    view = GlobalRibView(
        base, base_ribs, splice.device_ribs, splice.dropped, splice.installed
    )
    rebuilt = GlobalRib.from_device_ribs(splice.device_ribs.values()).best_routes()
    assert len(view) == len(rebuilt)
    for spec in DRAWN_SPECS:
        delta = verify(parse(spec), base, view)
        assert outcome(delta) == outcome(verify(spec, base, rebuilt)), spec
