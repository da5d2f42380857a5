"""The flyweight route-attribute store (``repro.routing.interning``).

Interning is a pure memory optimization: it must never change what a
simulation computes, only how many distinct objects back the result. These
tests pin the dedup contract (equal values collapse to one shared instance),
the record table's growth with distinct content rather than with runs, the
hit/miss accounting the execution backends report, and — most importantly —
that ``Route.evolve`` produces equal routes with the flag on or off.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro import perfopts
from repro.net.addr import IPAddress, Prefix
from repro.routing import interning
from repro.routing.attributes import Route, RouteAttrs
from repro.routing.simulator import simulate_routes
from repro.workload.routes import generate_input_routes
from repro.workload.wan import WanParams, generate_wan


@pytest.fixture(autouse=True)
def _interning_on():
    # These tests assert the flag's own effect, so they pin it on, also in
    # a test run with ``--perfopts-off``; flag-off cases nest their own
    # ``configured`` block inside.
    with perfopts.configured(intern_routes=True):
        yield


def _route(prefix: str = "10.0.0.0/24", **overrides) -> Route:
    base = dict(
        prefix=Prefix.parse(prefix),
        nexthop=IPAddress.parse("192.0.2.1"),
        as_path=(64500, 64501),
        communities=frozenset({"64500:1", "64500:2"}),
        local_pref=200,
    )
    base.update(overrides)
    return Route(**base)


class TestAttributeTables:
    def test_as_path_dedup(self):
        a = interning.intern_as_path((64500, 64501, 64502))
        b = interning.intern_as_path((64500, 64501, 64502))
        assert a is b

    def test_empty_as_path_is_preseeded(self):
        assert interning.intern_as_path(()) is interning.intern_as_path(())

    def test_communities_dedup(self):
        a = interning.intern_communities(frozenset({"64500:1"}))
        b = interning.intern_communities(frozenset({"64500:1"}))
        assert a is b

    def test_attribute_key_dedup(self):
        key_a = _route().attribute_key()
        key_b = _route("10.9.9.0/24").attribute_key()
        # Same announcement attributes on different prefixes: one shared key.
        assert key_a is key_b


class TestRouteTable:
    """The record table: one shared record per distinct attribute combination."""

    def test_equal_routes_collapse_to_one_instance(self):
        canonical = interning.intern_record(_route().attrs)
        duplicate = interning.intern_record(_route().attrs)
        assert duplicate is canonical
        # Routes that differ only by prefix share the record too.
        assert _route("10.8.0.0/24").attrs is canonical

    def test_distinct_routes_stay_distinct(self):
        a = interning.intern_record(_route(local_pref=100).attrs)
        b = interning.intern_record(_route(local_pref=300).attrs)
        assert a is not b
        assert a != b

    def test_hit_and_miss_accounting(self):
        before = interning.stats_snapshot()
        first = _route(local_pref=4242)  # constructing interns the record
        again = _route("10.255.0.0/24", local_pref=4242)
        assert again.attrs is first.attrs
        delta = interning.stats_snapshot().delta_since(before)
        assert delta.route_misses == 1
        assert delta.route_hits == 1

    def test_flag_off_allocates_fresh_records(self):
        before = interning.stats_snapshot()
        with perfopts.configured(intern_routes=False):
            one = _route(local_pref=4343)
            two = _route(local_pref=4343)
        assert one.attrs is not two.attrs
        assert one.attrs == two.attrs
        # Nothing was looked up, so nothing was counted.
        delta = interning.stats_snapshot().delta_since(before)
        assert delta.route_misses == 0 and delta.route_hits == 0

    def test_clear_resets_tables_and_stats(self):
        keep = _route(local_pref=4444)
        interning.clear()
        stats = interning.stats_snapshot()
        assert stats.route_hits == 0 and stats.route_misses == 0
        # After clear the same value is a fresh miss: the new canonical
        # record is the argument itself, not the pre-clear survivor.
        fresh = tuple.__new__(RouteAttrs, keep.attrs)
        assert interning.intern_record(fresh) is fresh
        assert fresh is not keep.attrs
        assert interning.stats_snapshot().route_misses == 1

    def test_concurrent_threads_share_records_and_count_every_call(self):
        # Worker threads (distsim, concurrent daemon jobs) intern into the
        # one table: each content must get one canonical record, and no
        # hit or miss may be lost.
        contents = [tuple(_route(local_pref=5000 + i).attrs) for i in range(40)]
        rounds, workers = 50, 8
        seen = [[] for _ in range(workers)]

        def work(slot):
            for _ in range(rounds):
                seen[slot].append(
                    [interning.intern_record(RouteAttrs._make(c)) for c in contents]
                )

        before = interning.stats_snapshot()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(slot,)) for slot in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        canonical = [interning.intern_record(RouteAttrs._make(c)) for c in contents]
        for batches in seen:
            assert len(batches) == rounds
            for batch in batches:
                assert all(a is b for a, b in zip(batch, canonical))
        delta = interning.stats_snapshot().delta_since(before)
        assert delta.route_hits + delta.route_misses == (
            rounds * workers * len(contents) + len(contents)
        )

    def test_table_grows_with_content_not_with_runs(self):
        model, inventory = generate_wan(WanParams(regions=2, seed=11))
        inputs = generate_input_routes(inventory, n_prefixes=20, seed=11)
        interning.clear()
        simulate_routes(model, inputs)
        first = interning.stats_snapshot()
        simulate_routes(model, inputs)
        second = interning.stats_snapshot().delta_since(first)
        # The records outlive the first run, so the identical second run
        # finds every one of them and adds none.
        assert first.route_misses > 0
        assert second.route_misses == 0
        assert second.route_hits > 0


class TestEvolveIntegration:
    def test_evolve_dedups_under_flag(self):
        base = _route()
        one = base.evolve(local_pref=500)
        two = base.evolve(local_pref=500)
        assert one.attrs is two.attrs
        assert one == two
        assert one.local_pref == 500

    def test_evolve_shares_interned_payloads(self):
        # A new record's AS path and community set go through the attribute
        # tables, so records that share them share one instance each.
        a = _route("10.4.0.0/24").evolve(
            as_path=(64999, 64500), communities=frozenset({"64999:1"})
        )
        b = _route("10.5.0.0/24").evolve(
            as_path=(64999, 64500), communities=frozenset({"64999:1"})
        )
        assert a.as_path is b.as_path
        assert a.communities is b.communities

    def test_evolve_with_flag_off_allocates_fresh(self):
        base = _route()
        with perfopts.configured(intern_routes=False):
            one = base.evolve(local_pref=500)
            two = base.evolve(local_pref=500)
        assert one is not two
        assert one == two

    def test_flag_state_never_changes_values(self):
        base = _route()
        optimized = base.evolve(med=42, communities=frozenset({"64500:9"}))
        with perfopts.configured(intern_routes=False):
            plain = base.evolve(med=42, communities=frozenset({"64500:9"}))
        assert optimized == plain
        assert optimized.canonical_key() == plain.canonical_key()
        assert hash(optimized) == hash(plain)


class TestPickling:
    def test_route_pickles_fields_only(self):
        route = _route()
        _, (prefix, fields) = route.__reduce__()
        # A plain tuple of the fields: no record class, no derived keys
        # (hashes of interned strings are per-process).
        assert prefix is route.prefix
        assert type(fields) is tuple and fields == tuple(route.attrs)
        clone = pickle.loads(pickle.dumps(route))
        assert clone == route
        # Loading re-interns the record.
        assert clone.attrs is route.attrs
