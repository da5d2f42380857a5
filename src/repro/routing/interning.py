"""Flyweight storage for route attributes (the interning layer).

At paper scale a WAN simulation materializes millions of ``Route`` objects,
but the *distinct* attribute values among them number in the thousands: the
same AS paths, community sets, and attribute records recur on every device
a route reaches (route reflectors fan one announcement out to dozens of
clients; EC expansion clones one representative row onto every member
prefix). Interning collapses those duplicates to one shared object each, so
per-copy memory cost drops from "one attribute record per route" to "one
reference per route".

Four tables, all process-wide and behind the ``intern_routes`` perf flag
(``repro.perfopts``, default on — byte-identical results off):

* **AS paths** — ``intern_as_path`` dedups the ``Tuple[int, ...]`` payloads;
* **community sets** — ``intern_communities`` dedups the ``FrozenSet[str]``
  payloads (the empty frozenset is the overwhelmingly common case);
* **attribute keys** — ``intern_attribute_key`` dedups the §3.1 EC keys of
  :meth:`~repro.routing.attributes.Route.attribute_key`, and
  ``record_attribute_key`` builds each record's key once;
* **route records** — ``intern_record`` maps a
  :class:`~repro.routing.attributes.RouteAttrs` record (every field of a
  route but its prefix) to one canonical instance, so route construction,
  ``Route.evolve`` (policy application, ingress processing) and unpickling
  share one record per distinct attribute combination.

Every table holds strong references: a record is small, routes that differ
only by prefix share it, and the number of distinct records grows with the
distinct attribute content a process has seen, not with the number of runs
(a second identical run adds none). ``clear`` drops them all.

Counters: every ``intern_record`` call is either a **hit** (an equal record
already existed — the allocation was saved) or a **miss** (first sighting —
the record becomes canonical). Execution backends snapshot the
process-wide totals around a run and report the delta as the
``routes.interned`` / ``routes.unique`` counters on the
:class:`~repro.obs.RunContext` (see ``docs/observability.md``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Tuple

__all__ = [
    "InternStats",
    "intern_as_path",
    "intern_attribute_key",
    "intern_communities",
    "intern_record",
    "record_attribute_key",
    "clear",
    "stats_snapshot",
]


@dataclass
class InternStats:
    """Cumulative process-wide record-interning totals (monotonic)."""

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
# The record table is read and written from worker threads (the distsim
# thread pool, concurrent daemon jobs); one lock keeps hit accounting and
# the table coherent. Attribute-table races are benign (idempotent inserts
# of equal immutable values) so they go lockless.
_LOCK = threading.Lock()

_AS_PATHS: Dict[Tuple[int, ...], Tuple[int, ...]] = {(): ()}
_COMMUNITIES: Dict[FrozenSet[str], FrozenSet[str]] = {frozenset(): frozenset()}
_ATTRIBUTE_KEYS: Dict[Tuple, Tuple] = {}
_RECORDS: Dict[Tuple, Tuple] = {}
_KEYS_OF_RECORDS: Dict[Tuple, Tuple] = {}


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


def record_attribute_key(record, build: Callable[[Tuple], Tuple]) -> Tuple:
    """The interned attribute key of a route record, built once per record.

    ``build(record)`` computes the key; it is a function of the record
    alone, and every row of a flattened RIB asks for it.
    """
    key = _KEYS_OF_RECORDS.get(record)
    if key is None:
        key = _KEYS_OF_RECORDS[record] = intern_attribute_key(build(record))
    return key


def intern_record(record):
    """The canonical instance of a route record with these exact fields.

    A new record becomes canonical with its AS path and community set
    replaced by their canonical instances.
    """
    with _LOCK:
        found = _RECORDS.get(record)
        if found is not None:
            _STATS.route_hits += 1
            return found
        _STATS.route_misses += 1
        as_path = intern_as_path(record.as_path)
        communities = intern_communities(record.communities)
        if as_path is not record.as_path or communities is not record.communities:
            record = record._replace(as_path=as_path, communities=communities)
        _RECORDS[record] = record
    return record


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
        _RECORDS.clear()
        _KEYS_OF_RECORDS.clear()
        _STATS = InternStats()
