"""Region assignment and border-summary abstraction tests."""

from repro.modular.regions import (
    RegionAssignment,
    assign_regions,
    split_sessions,
)
from repro.modular.summaries import (
    AttributeBounds,
    diff_exports,
    summaries_equal,
    summary_fingerprint,
)
from repro.modular.verifier import SummaryGuidedVerifier
from repro.routing.bgp import build_sessions
from repro.routing.inputs import build_local_input_routes


class TestRegionAssignment:
    def test_assignment_from_topology(self, workload):
        model, _, _ = workload
        assignment = assign_regions(model)
        assert assignment.regions == ("region0", "region1", "region2")
        for router in model.topology.routers:
            assert assignment.region_for(router.name) == router.region
        for region in assignment.regions:
            assert assignment.devices_in(region)

    def test_split_sessions_partitions_the_session_graph(self, workload):
        from repro.routing.isis import compute_igp

        model, _, _ = workload
        assignment = assign_regions(model)
        sessions = build_sessions(model, compute_igp(model))
        intra, cross = split_sessions(sessions, assignment)
        assert sum(len(v) for v in intra.values()) + len(cross) == len(sessions)
        for region, members in intra.items():
            for session in members:
                assert assignment.region_for(session.sender) == region
                assert assignment.region_for(session.receiver) == region
        for session in cross:
            assert assignment.region_for(session.sender) != assignment.region_for(
                session.receiver
            )

    def test_devices_in_is_sorted_and_stable(self):
        assignment = RegionAssignment(
            region_of={"b": "x", "a": "x", "c": "y"}
        )
        assert assignment.regions == ("x", "y")
        assert assignment.devices_in("x") == ("a", "b")
        assert assignment.devices_in("missing") == ()


def _solve(model, routes):
    verifier = SummaryGuidedVerifier(model)
    inputs = build_local_input_routes(model) + list(routes)
    result = verifier.solve(inputs)
    assert not result.fallback
    return verifier, result


class TestSummaries:
    def test_fingerprint_deterministic_across_solves(self, workload):
        model, routes, _ = workload
        _, first = _solve(model, routes)
        _, second = _solve(model, routes)
        for region in first.summaries:
            assert (
                summary_fingerprint(first.summaries[region])
                == summary_fingerprint(second.summaries[region])
            )

    def test_fingerprint_tracks_content(self, workload):
        model, routes, _ = workload
        _, full = _solve(model, routes)
        _, fewer = _solve(model, routes[: len(routes) // 2])
        changed = [
            region
            for region in full.summaries
            if summary_fingerprint(full.summaries[region])
            != summary_fingerprint(fewer.summaries[region])
        ]
        assert changed  # dropping half the inputs must move some border

    def test_prefixes_and_bounds(self, workload):
        model, routes, _ = workload
        _, result = _solve(model, routes)
        summary = next(
            s for s in result.summaries.values() if s.route_count()
        )
        prefixes = summary.prefixes()
        assert prefixes == tuple(sorted(
            prefixes, key=lambda p: (p.family, p.value, p.length)
        ))
        bounds = summary.bounds()
        assert isinstance(bounds, AttributeBounds)
        assert bounds.local_pref_min <= bounds.local_pref_max
        assert bounds.as_path_len_min <= bounds.as_path_len_max

    def test_restricted_narrows_to_predicate(self, workload):
        model, routes, _ = workload
        _, result = _solve(model, routes)
        summary = next(
            s for s in result.summaries.values() if len(s.prefixes()) > 1
        )
        keep = summary.prefixes()[0]
        narrowed = summary.restricted(lambda p: p == keep)
        assert narrowed.prefixes() == (keep,)
        assert narrowed.route_count() < summary.route_count()

    def test_diff_exports_produces_counter_examples(self, workload):
        model, routes, _ = workload
        _, result = _solve(model, routes)
        summary = next(
            s for s in result.summaries.values() if s.route_count()
        )
        violations = diff_exports(summary.region, {}, summary.exports)
        assert violations
        described = violations[0].describe()
        assert summary.region in described
        assert str(violations[0].prefix) in described

    def test_summaries_equal_ignores_withdrawn_entries(self, workload):
        from repro.net.addr import Prefix

        model, routes, _ = workload
        _, result = _solve(model, routes)
        summary = next(
            s for s in result.summaries.values() if s.route_count()
        )
        key = next(iter(summary.exports))
        padded = {k: dict(v) for k, v in summary.exports.items()}
        # An empty route set is a withdrawal marker, not a claim.
        padded[key][Prefix.parse("203.0.113.0/24")] = ()
        assert summaries_equal(summary.exports, padded)
        assert not summaries_equal(summary.exports, {})
