"""Flyweight storage for route attributes (the interning layer).

At paper scale a WAN simulation materializes millions of ``Route`` objects,
but the *distinct* attribute values among them number in the thousands: the
same AS paths, community sets, and full attribute tuples recur on every
device a route reaches (route reflectors fan one announcement out to dozens
of clients; EC expansion clones one representative row onto every member
prefix). Interning collapses those duplicates to one shared object each, so
per-copy memory cost drops from "one attribute tuple per RIB row" to "one
reference per RIB row".

Three tables, all process-wide and behind the ``intern_routes`` perf flag
(``repro.perfopts``, default on — byte-identical results off):

* **AS paths** — ``intern_as_path`` dedups the ``Tuple[int, ...]`` payloads;
* **community sets** — ``intern_communities`` dedups the ``FrozenSet[str]``
  payloads (the empty frozenset is the overwhelmingly common case);
* **whole routes** — ``intern_route`` maps a route's
  :meth:`~repro.routing.attributes.Route.canonical_key` to one canonical
  instance, so ``Route.evolve`` (policy application, ingress processing)
  and unpickling stop allocating duplicate route objects.

The route table holds weak references: interned routes live exactly as long
as some RIB, adjacency slot, or advertisement cache still references them,
so long-lived processes (the future ``repro serve``) do not leak retired
route generations. The attribute tables hold strong references — their
payloads are tiny and shared across generations.

Counters: every ``intern_route`` call is either a **hit** (an identical
route already existed — the allocation was saved) or a **miss** (first
sighting — the instance becomes canonical). Execution backends snapshot the
process-wide totals around a run and report the delta as the
``routes.interned`` / ``routes.unique`` counters on the
:class:`~repro.obs.RunContext` (see ``docs/observability.md``).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

__all__ = [
    "InternStats",
    "intern_as_path",
    "intern_attribute_key",
    "intern_communities",
    "intern_route",
    "clear",
    "stats_snapshot",
]


@dataclass
class InternStats:
    """Cumulative process-wide interning totals (monotonic)."""

    route_hits: int = 0
    route_misses: int = 0

    def snapshot(self) -> "InternStats":
        return InternStats(self.route_hits, self.route_misses)

    def delta_since(self, earlier: "InternStats") -> "InternStats":
        return InternStats(
            self.route_hits - earlier.route_hits,
            self.route_misses - earlier.route_misses,
        )


_STATS = InternStats()
# The route table is read and written from worker threads (the distsim
# thread pool, concurrent daemon jobs); one lock keeps hit accounting and the
# weak table coherent. Attribute-table races are benign (idempotent
# inserts of equal immutable values) so they go lockless.
_LOCK = threading.Lock()

_AS_PATHS: Dict[Tuple[int, ...], Tuple[int, ...]] = {(): ()}
_COMMUNITIES: Dict[FrozenSet[str], FrozenSet[str]] = {frozenset(): frozenset()}
_ATTRIBUTE_KEYS: Dict[Tuple, Tuple] = {}
_ROUTES: "weakref.WeakValueDictionary[Tuple, object]" = weakref.WeakValueDictionary()


def intern_as_path(as_path: Tuple[int, ...]) -> Tuple[int, ...]:
    """The canonical instance of an AS-path tuple."""
    found = _AS_PATHS.get(as_path)
    if found is None:
        _AS_PATHS[as_path] = as_path
        return as_path
    return found


def intern_communities(communities: FrozenSet[str]) -> FrozenSet[str]:
    """The canonical instance of a community frozenset."""
    found = _COMMUNITIES.get(communities)
    if found is None:
        _COMMUNITIES[communities] = communities
        return communities
    return found


def intern_attribute_key(key: Tuple) -> Tuple:
    """The canonical instance of a BGP attribute-key tuple.

    One announcement typically fans out over many prefixes and devices, so
    the same attribute tuple recurs on thousands of routes — and it also
    keys the route-EC grouping, so sharing one instance makes those dict
    lookups hit the pointer-equality fast path.
    """
    found = _ATTRIBUTE_KEYS.get(key)
    if found is None:
        _ATTRIBUTE_KEYS[key] = key
        return key
    return found


def _route_key(route) -> Tuple:
    """Every field of a route as one plain hashable tuple.

    Deliberately NOT :meth:`Route.canonical_key`: that key sorts community
    and flag sets into tuples (it must be stable across processes), which
    costs more than the whole table lookup. Within one process, frozensets
    hash and compare fine — and the interned community sets are shared
    instances whose cached hash is computed once — so the direct field
    tuple gives the same two-routes-equal-iff-same-key contract for a
    fraction of the build cost.
    """
    return (
        route.prefix,
        route.nexthop,
        route.as_path,
        route.origin,
        route.local_pref,
        route.med,
        route.communities,
        route.weight,
        route.preference,
        route.protocol,
        route.source,
        route.igp_cost,
        route.origin_router,
        route.origin_vrf,
        route.aggregator,
        route.flags,
    )


def intern_route(route):
    """The canonical instance of a route with this exact attribute tuple.

    Keys on every field, so two routes map to one instance exactly when
    they are indistinguishable to any pure function of the route.
    """
    key = _route_key(route)
    with _LOCK:
        found = _ROUTES.get(key)
        if found is not None:
            _STATS.route_hits += 1
            return found
        _STATS.route_misses += 1
        _ROUTES[key] = route
    return route


def stats_snapshot() -> InternStats:
    """A point-in-time copy of the cumulative totals (for run deltas)."""
    with _LOCK:
        return _STATS.snapshot()


def clear() -> None:
    """Drop every table and reset counters (tests and memory benchmarks)."""
    global _STATS
    with _LOCK:
        _AS_PATHS.clear()
        _AS_PATHS[()] = ()
        _COMMUNITIES.clear()
        _COMMUNITIES[frozenset()] = frozenset()
        _ATTRIBUTE_KEYS.clear()
        _ROUTES.clear()
        _STATS = InternStats()
