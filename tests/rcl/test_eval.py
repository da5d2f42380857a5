"""Tests for RCL semantics (Figure 11) and counter-example generation."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import IPAddress, Prefix
from repro.rcl import check, verify
from repro.rcl.errors import RclTypeError
from repro.routing.attributes import Route
from repro.routing.rib import GlobalRib, RibRoute, UnknownFieldError


def row(device, prefix, vrf="global", comms=(), lp=100, nh="2.0.0.1",
        aspath=(), route_type="BEST", med=0):
    return RibRoute(
        device=device,
        vrf=vrf,
        route=Route(
            prefix=Prefix.parse(prefix),
            communities=frozenset(comms),
            local_pref=lp,
            med=med,
            as_path=aspath,
            nexthop=IPAddress.parse(nh) if nh else None,
        ),
        route_type=route_type,
    )


@pytest.fixture()
def figure6():
    """The base/updated global RIBs of Figure 6."""
    base = GlobalRib([
        row("A", "10.0.0.0/24", comms={"100:1"}, lp=100, nh="2.0.0.1"),
        row("A", "20.0.0.0/24", vrf="vrf1", comms={"100:1", "200:1"}, lp=10, nh="3.0.0.1"),
        row("B", "10.0.0.0/24", comms={"100:1"}, lp=200, nh="4.0.0.1"),
    ])
    updated = GlobalRib([
        row("A", "10.0.0.0/24", comms={"100:1"}, lp=300, nh="2.0.0.1"),
        row("A", "20.0.0.0/24", vrf="vrf1", comms={"100:1", "200:1"}, lp=10, nh="3.0.0.1"),
        row("B", "10.0.0.0/24", comms={"100:1"}, lp=300, nh="4.0.0.1"),
    ])
    return base, updated


class TestFigure6Examples:
    def test_intent_a_satisfied(self, figure6):
        base, updated = figure6
        assert check(
            "prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}",
            base,
            updated,
        )

    def test_intent_b_satisfied(self, figure6):
        base, updated = figure6
        assert check("prefix != 10.0.0.0/24 => PRE = POST", base, updated)

    def test_pre_not_equal_post(self, figure6):
        base, updated = figure6
        assert not check("PRE = POST", base, updated)
        assert check("PRE != POST", base, updated)

    def test_violation_when_lp_wrong(self, figure6):
        base, updated = figure6
        result = verify(
            "prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {999}",
            base,
            updated,
        )
        assert not result.satisfied
        assert result.violations
        assert "999" in result.violations[0].expression


class TestPredicates:
    def test_field_comparisons(self, figure6):
        base, updated = figure6
        assert check("device = A => PRE |> count() = 2", base, updated)
        assert check("localPref > 100 => PRE |> count() = 1", base, updated)
        assert check("localPref <= 100 => PRE |> count() = 2", base, updated)

    def test_contains(self, figure6):
        base, updated = figure6
        assert check(
            "communities contains 200:1 => PRE |> count() = 1", base, updated
        )

    def test_in(self, figure6):
        base, updated = figure6
        assert check("device in {A} => PRE |> count() = 2", base, updated)
        assert check("device in {A, B} => PRE |> count() = 3", base, updated)

    def test_matches_is_fullmatch(self, figure6):
        # Appendix A: the ENTIRE field must match the regex.
        base, updated = figure6
        assert check('device matches "A" => PRE |> count() = 2', base, updated)
        assert check('device matches "." => PRE |> count() = 3', base, updated)
        # A partial match is not enough: "" matches nothing fully but ".*" does
        assert check('vrf matches "glo" => PRE |> count() = 0', base, updated)
        assert check('vrf matches "glo.*" => PRE |> count() = 2', base, updated)

    def test_boolean_composition(self, figure6):
        base, updated = figure6
        assert check(
            "device = A and vrf = global => PRE |> count() = 1", base, updated
        )
        assert check(
            "device = A or device = B => PRE |> count() = 3", base, updated
        )
        assert check("not device = A => PRE |> count() = 1", base, updated)
        assert check(
            # imply inside a predicate: non-A rows vacuously satisfy
            "device = A imply vrf = vrf1 => POST |> distCnt(device) = 2",
            base,
            updated,
        )

    def test_unknown_field_raises(self, figure6):
        base, updated = figure6
        with pytest.raises(UnknownFieldError):
            check("bogus = 1 => PRE = POST", base, updated)

    def test_contains_on_scalar_raises(self, figure6):
        base, updated = figure6
        with pytest.raises(RclTypeError):
            check("device contains A => PRE = POST", base, updated)


class TestEvaluations:
    def test_count(self, figure6):
        base, updated = figure6
        assert check("PRE |> count() = 3", base, updated)

    def test_filter_then_count(self, figure6):
        base, updated = figure6
        assert check("PRE || device = B |> count() = 1", base, updated)

    def test_dist_cnt(self, figure6):
        base, updated = figure6
        assert check("PRE |> distCnt(nexthop) = 3", base, updated)
        assert check("PRE |> distCnt(device) = 2", base, updated)

    def test_dist_vals(self, figure6):
        base, updated = figure6
        assert check(
            "PRE || prefix = 10.0.0.0/24 |> distVals(localPref) = {100, 200}",
            base,
            updated,
        )

    def test_arithmetic(self, figure6):
        base, updated = figure6
        assert check("PRE |> count() = 1 + 1 * 2", base, updated)
        assert check("PRE |> count() - POST |> count() = 0", base, updated)
        assert check("POST |> count() / 3 = 1", base, updated)

    def test_division_by_zero(self, figure6):
        base, updated = figure6
        with pytest.raises(RclTypeError):
            check("PRE |> count() / 0 = 1", base, updated)

    def test_arith_on_sets_rejected(self, figure6):
        base, updated = figure6
        with pytest.raises(RclTypeError):
            check("PRE |> distVals(device) + 1 = 2", base, updated)

    def test_ordering_on_sets_rejected(self, figure6):
        base, updated = figure6
        with pytest.raises(RclTypeError):
            check("PRE |> distVals(device) > {1}", base, updated)


class TestForall:
    def test_forall_groups_by_field(self, figure6):
        base, updated = figure6
        # Every prefix has exactly one distinct nexthop set per device...
        assert check("forall prefix: POST |> distCnt(prefix) = 1", base, updated)

    def test_forall_detects_violating_group(self, figure6):
        base, updated = figure6
        result = verify("forall device: POST |> count() = 2", base, updated)
        assert not result.satisfied
        scopes = {tuple(v.scope) for v in result.violations}
        assert ("device = B",) in scopes  # B has only 1 route

    def test_forall_in_limits_groups(self, figure6):
        base, updated = figure6
        assert check("forall device in {A}: POST |> count() = 2", base, updated)
        assert not check("forall device in {A, B}: POST |> count() = 2", base, updated)

    def test_forall_in_missing_value_gives_empty_group(self, figure6):
        base, updated = figure6
        # Group for device C is empty; count() = 0 holds there.
        assert check("forall device in {C}: POST |> count() = 0", base, updated)

    def test_forall_values_from_both_ribs(self):
        base = GlobalRib([row("A", "10.0.0.0/24")])
        updated = GlobalRib([row("B", "10.0.0.0/24")])
        # devices A and B both appear in the union of base/updated.
        result = verify("forall device: PRE = POST", base, updated)
        assert len(result.violations) == 2


class TestIntentComposition:
    def test_and_collects_all_violations(self, figure6):
        base, updated = figure6
        result = verify(
            "PRE |> count() = 99 and POST |> count() = 99", base, updated
        )
        assert len(result.violations) == 2

    def test_or_absolves_failed_branch(self, figure6):
        base, updated = figure6
        result = verify("PRE |> count() = 99 or PRE |> count() = 3", base, updated)
        assert result.satisfied
        assert result.violations == []

    def test_not(self, figure6):
        base, updated = figure6
        assert check("not PRE = POST", base, updated)
        assert not check("not PRE |> count() = 3", base, updated)

    def test_imply_vacuous(self, figure6):
        base, updated = figure6
        result = verify(
            "(PRE |> count() = 99) imply (POST |> count() = 99)", base, updated
        )
        assert result.satisfied

    def test_imply_checks_consequent(self, figure6):
        base, updated = figure6
        assert not check(
            "(PRE |> count() = 3) imply (POST |> count() = 99)", base, updated
        )


class TestUseCases:
    """The three real-world §4.3 use cases, verbatim."""

    def test_validating_unchanged_routes(self):
        spec = (
            "forall device in {R1, R2}: forall prefix in "
            "{10.0.0.0/24, 20.0.0.0/24}: routeType = BEST => "
            "PRE |> distVals(nexthop) = POST |> distVals(nexthop)"
        )
        base = GlobalRib([
            row("R1", "10.0.0.0/24", nh="9.0.0.1"),
            row("R2", "20.0.0.0/24", nh="9.0.0.2"),
            row("R1", "99.0.0.0/24", nh="9.0.0.3"),  # out of scope
        ])
        updated = GlobalRib([
            row("R1", "10.0.0.0/24", nh="9.0.0.1"),
            row("R2", "20.0.0.0/24", nh="9.0.0.2"),
            row("R1", "99.0.0.0/24", nh="7.7.7.7"),  # changed but out of scope
        ])
        assert check(spec, base, updated)
        moved = GlobalRib([
            row("R1", "10.0.0.0/24", nh="8.8.8.8"),
            row("R2", "20.0.0.0/24", nh="9.0.0.2"),
        ])
        assert not check(spec, base, moved)

    def test_validating_route_change_success(self):
        spec = (
            "forall device in {R1, R2}: "
            "POST || (communities has 100:1) |> count() = 0"
        )
        clean = GlobalRib([row("R1", "10.0.0.0/24", comms={"999:9"})])
        dirty = GlobalRib([row("R2", "10.0.0.0/24", comms={"100:1"})])
        base = GlobalRib([])
        assert check(spec, base, clean)
        assert not check(spec, base, dirty)

    def test_checking_conditional_changes(self):
        spec = (
            "forall device in {R1, R2}: forall prefix: "
            "(PRE |> distVals(nexthop) = {1.2.3.4}) imply "
            "(POST |> distVals(nexthop) = {10.2.3.4})"
        )
        base = GlobalRib([
            row("R1", "10.0.0.0/24", nh="1.2.3.4"),
            row("R1", "20.0.0.0/24", nh="5.5.5.5"),
        ])
        good = GlobalRib([
            row("R1", "10.0.0.0/24", nh="10.2.3.4"),
            row("R1", "20.0.0.0/24", nh="5.5.5.5"),
        ])
        bad = GlobalRib([
            row("R1", "10.0.0.0/24", nh="1.2.3.4"),  # still old exit
            row("R1", "20.0.0.0/24", nh="5.5.5.5"),
        ])
        assert check(spec, base, good)
        assert not check(spec, base, bad)


class TestCounterExamples:
    def test_scope_includes_guards_and_groups(self, figure6):
        base, updated = figure6
        result = verify(
            "forall device: vrf = global => POST |> distVals(localPref) = {1}",
            base,
            updated,
        )
        assert not result.satisfied
        scope = result.violations[0].scope
        assert any(s.startswith("device =") for s in scope)
        assert any(s.startswith("where") for s in scope)

    def test_sample_rows_limited(self):
        base = GlobalRib([row("A", f"10.0.{i}.0/24") for i in range(50)])
        updated = GlobalRib([])
        result = verify("PRE = POST", base, updated)
        assert len(result.violations[0].sample_rows) <= 5

    def test_report_text(self, figure6):
        base, updated = figure6
        good = verify("PRE |> count() = 3", base, updated)
        assert good.report() == "intent satisfied"
        bad = verify("PRE |> count() = 99", base, updated)
        assert "VIOLATED" in bad.report()


# -- property-based semantics checks ------------------------------------------

devices = st.sampled_from(["A", "B", "C"])
lps = st.integers(min_value=0, max_value=3)


@st.composite
def ribs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    rows = []
    for i in range(n):
        rows.append(
            row(draw(devices), f"10.0.{i}.0/24", lp=draw(lps) * 100)
        )
    return GlobalRib(rows)


@given(base=ribs(), updated=ribs())
def test_pre_equals_post_iff_identity_sets(base, updated):
    expected = base.identity_set() == updated.identity_set()
    assert check("PRE = POST", base, updated) == expected
    assert check("PRE != POST", base, updated) == (not expected)


@given(base=ribs(), updated=ribs())
def test_guard_equals_manual_filter(base, updated):
    guarded = check("device = A => PRE |> count() = 2", base, updated)
    manual = sum(r.device == "A" for r in base) == 2
    assert guarded == manual


@given(base=ribs(), updated=ribs())
def test_forall_conjunction_semantics(base, updated):
    spec = "forall device: POST |> count() <= 6"
    assert check(spec, base, updated)  # bound is total size


@given(base=ribs(), updated=ribs())
def test_not_is_involution(base, updated):
    inner = check("PRE = POST", base, updated)
    assert check("not not PRE = POST", base, updated) == inner
