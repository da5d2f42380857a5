"""RIB structures: per-device RIBs and the global RIB abstraction of RCL.

A :class:`DeviceRib` stores, per VRF and prefix, the candidate routes plus
the selected best/ECMP set, and answers longest-prefix-match queries for
traffic simulation. A :class:`GlobalRib` is one table of every device's
routes with ``device`` and ``vrf`` columns — exactly the abstraction RCL
intents are written against (§4.1, Figure 6). The global RIB of a simulated
world is a :class:`GlobalRibView`: it counts its rows off the device RIBs
and flattens them into the table only when something reads the rows.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.net.addr import IPAddress, Prefix
from repro.net.trie import PrefixTrie
from repro.routing.attributes import Route

ROUTE_TYPE_BEST = "BEST"
ROUTE_TYPE_ECMP = "ECMP"
ROUTE_TYPE_CANDIDATE = "CANDIDATE"
#: the route types of a FIB-relevant row (what ``best_routes()`` keeps)
_BEST_TYPES = (ROUTE_TYPE_BEST, ROUTE_TYPE_ECMP)

#: RCL field names resolvable on a row, mapped to extractor functions.
_FIELD_EXTRACTORS = {
    "device": lambda r: r.device,
    "vrf": lambda r: r.vrf,
    "prefix": lambda r: str(r.route.prefix),
    "nexthop": lambda r: str(r.route.nexthop) if r.route.nexthop else "",
    "localPref": lambda r: r.route.local_pref,
    "med": lambda r: r.route.med,
    "communities": lambda r: r.route.communities,
    "aspath": lambda r: r.route.as_path_str(),
    "weight": lambda r: r.route.weight,
    "preference": lambda r: r.route.preference,
    "protocol": lambda r: r.route.protocol,
    "origin": lambda r: r.route.origin,
    "source": lambda r: r.route.source,
    "igpCost": lambda r: r.route.igp_cost,
    "routeType": lambda r: r.route_type,
}

RIB_FIELDS = tuple(_FIELD_EXTRACTORS)

#: the fields whose value is a set; every other field holds a scalar
SET_FIELDS = frozenset({"communities"})

#: process-wide source of ``DeviceRib.generation`` values: every new RIB,
#: mutation and unpickled copy draws a fresh one, so two RIB states never
#: share a number
_GENERATIONS = itertools.count(1)

#: the FIB index of a VRF the RIB does not hold
_NO_FIB: Tuple[PrefixTrie, Tuple[Prefix, ...]] = (PrefixTrie(), ())

#: Per VRF with a slot, a RIB's slot prefixes in table order (an ordered set)
Slots = Dict[str, Dict[Prefix, None]]


class UnknownFieldError(KeyError):
    """Raised when an RCL specification references an unknown RIB field."""


def field_extractor(name: str) -> Callable[["RibRoute"], object]:
    """The function reading RCL field ``name`` off a row."""
    try:
        return _FIELD_EXTRACTORS[name]
    except KeyError:
        raise UnknownFieldError(
            f"unknown RIB field {name!r}; known: {sorted(_FIELD_EXTRACTORS)}"
        ) from None


@dataclass(frozen=True, slots=True)
class RibRoute:
    """One row of a RIB table: a route located at (device, vrf).

    ``slots=True``: a global RIB at paper scale holds one ``RibRoute`` per
    route per device — millions of rows — and the per-instance ``__dict__``
    of a plain dataclass roughly doubles each row's footprint. Rows carry
    no cached derivatives, so slots cost nothing.
    """

    device: str
    vrf: str
    route: Route
    route_type: str = ROUTE_TYPE_BEST

    def field(self, name: str):
        """Field access by RCL name (e.g. ``localPref``, ``routeType``)."""
        return field_extractor(name)(self)

    def identity(self) -> Tuple:
        """Full-row identity used for RIB set comparison (PRE = POST)."""
        return (
            self.device,
            self.vrf,
            self.route_type,
            str(self.route.prefix),
            self.route.attribute_key(),
        )

    def __str__(self) -> str:
        return f"{self.device}/{self.vrf} [{self.route_type}] {self.route}"


class DeviceRib:
    """Routes of one device, indexed per VRF and prefix.

    No method mutates an entry list in place (every write stores a new,
    non-empty list), so RIBs may share entry lists: see :meth:`derive`.
    """

    def __init__(self, device: str) -> None:
        self.device = device
        # vrf -> prefix -> list of (route, route_type)
        self._tables: Dict[str, Dict[Prefix, List[Tuple[Route, str]]]] = {}
        # vrf -> (LPM table, FIB prefixes); None until read after a mutation
        self._fib: Optional[Dict[str, Tuple[PrefixTrie, Tuple[Prefix, ...]]]] = None
        # number of best/ECMP rows; None until read after a mutation
        self._best_rows: Optional[int] = None
        self._generation = next(_GENERATIONS)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._generation = next(_GENERATIONS)

    @property
    def generation(self) -> int:
        """Stamp of this RIB's current state (bumped by every mutation).

        Values come from one counter shared by every ``DeviceRib`` in the
        process, so no other RIB object, and no earlier state of this one,
        ever holds the same value.
        """
        return self._generation

    def _mutated(self) -> None:
        self._fib = None
        self._best_rows = None
        self._generation = next(_GENERATIONS)

    # -- mutation ---------------------------------------------------------

    def install(
        self, route: Route, vrf: str = "global", route_type: str = ROUTE_TYPE_BEST
    ) -> None:
        table = self._tables.setdefault(vrf, {})
        table[route.prefix] = [*table.get(route.prefix, ()), (route, route_type)]
        self._mutated()

    def replace_prefix(
        self, vrf: str, prefix: Prefix, entries: List[Tuple[Route, str]]
    ) -> None:
        """Replace all routes for one prefix (used after best-path selection)."""
        table = self._tables.setdefault(vrf, {})
        if entries:
            table[prefix] = list(entries)
        else:
            table.pop(prefix, None)
        self._mutated()

    def clone_slots(
        self,
        members_of: Dict[Prefix, List[Prefix]],
        clones: Dict[Prefix, Dict[int, Route]],
    ) -> None:
        """Copy each slot keyed in ``members_of`` onto the mapped prefixes.

        The §3.1 expansion: routes are re-announced for the target prefix,
        route types and row order kept. ``clones`` shares one clone per
        prefix and ``id(route.attrs)`` with the other devices being
        expanded: routes with one record re-announced for one prefix are
        equal.
        """
        for table in self._tables.values():
            for prefix in [p for p in table if p in members_of]:
                entries = table[prefix]
                for member in members_of[prefix]:
                    memo = clones.get(member)
                    if memo is None:
                        memo = clones[member] = {}
                    cloned = []
                    for route, route_type in entries:
                        clone = memo.get(id(route.attrs))
                        if clone is None:
                            clone = memo[id(route.attrs)] = route.with_prefix(member)
                        cloned.append((clone, route_type))
                    table[member] = cloned
        self._mutated()

    def derive(
        self, dropped: Slots, source: Optional["DeviceRib"], installed: Slots
    ) -> "DeviceRib":
        """This RIB without ``dropped``, plus ``installed`` from ``source``.

        Copy-on-write: each VRF table is copied at C speed, less the
        dropped slots (a table left empty is left out); installed slots
        follow in ``installed`` order. Entry lists stay shared.
        """
        derived = DeviceRib(self.device)
        tables = derived._tables
        for vrf, table in self._tables.items():
            gone = dropped.get(vrf, ())
            if len(gone) < len(table):
                kept = tables[vrf] = dict(table)
                for prefix in gone:
                    del kept[prefix]
        for vrf, prefixes in installed.items():
            entries = source._tables[vrf]
            table = tables.setdefault(vrf, {})
            for prefix in prefixes:
                table[prefix] = entries[prefix]
        return derived

    # -- queries -----------------------------------------------------------

    @property
    def vrfs(self) -> List[str]:
        return list(self._tables)

    def prefixes(self, vrf: str = "global") -> List[Prefix]:
        return list(self._tables.get(vrf, {}))

    def slot_count(self) -> int:
        """Number of (VRF, prefix) slots."""
        return sum(map(len, self._tables.values()))

    def routes_for(
        self, prefix: Prefix, vrf: str = "global", best_only: bool = True
    ) -> List[Route]:
        entries = self._tables.get(vrf, {}).get(prefix, [])
        if best_only:
            return [r for r, t in entries if t in _BEST_TYPES]
        return [r for r, _ in entries]

    def entries_for(
        self, prefix: Prefix, vrf: str = "global"
    ) -> List[Tuple[Route, str]]:
        return list(self._tables.get(vrf, {}).get(prefix, []))

    def _index(self, vrf: str) -> Tuple[PrefixTrie, Tuple[Prefix, ...]]:
        """The FIB index of ``vrf``: (LPM table, FIB prefixes).

        The FIB prefixes are those with a best/ECMP row, in table order;
        the LPM table maps each to itself. Built for every VRF on the
        first read after a mutation.
        """
        if self._fib is None:
            self._fib = {}
            for vname, table in self._tables.items():
                prefixes = tuple(
                    prefix
                    for prefix, entries in table.items()
                    if any(t in _BEST_TYPES for _, t in entries)
                )
                trie = PrefixTrie()
                for prefix in prefixes:
                    trie.insert(prefix, prefix)
                self._fib[vname] = (trie, prefixes)
        return self._fib.get(vrf, _NO_FIB)

    def fib_prefixes(self, vrf: str = "global") -> Tuple[Prefix, ...]:
        """Prefixes of ``vrf`` with a best/ECMP row, in table order."""
        return self._index(vrf)[1]

    def lpm(
        self, address: IPAddress, vrf: str = "global"
    ) -> Optional[Tuple[Prefix, List[Route]]]:
        """Longest-prefix match over best/ECMP routes."""
        hit = self._index(vrf)[0].lookup_lpm(address)
        if hit is None:
            return None
        (prefix,) = hit[1]
        return prefix, self.routes_for(prefix, vrf)

    def all_rows(
        self, best_only: bool = False, slots: Optional[Slots] = None
    ) -> Iterator[RibRoute]:
        """Rows in table order: every row or the best/ECMP ones, of every
        slot or of ``slots`` (which must list held slots in table order)."""
        for vrf, table in self._tables.items():
            if slots is None:
                entry_lists = table.values()
            else:
                entry_lists = (table[prefix] for prefix in slots.get(vrf, ()))
            for entries in entry_lists:
                for route, route_type in entries:
                    if not best_only or route_type in _BEST_TYPES:
                        yield RibRoute(self.device, vrf, route, route_type)

    def route_count(self) -> int:
        return sum(
            len(entries)
            for table in self._tables.values()
            for entries in table.values()
        )

    def best_row_count(self) -> int:
        """Number of best/ECMP rows, counted once per mutation."""
        if self._best_rows is None:
            self._best_rows = sum(
                route_type in _BEST_TYPES
                for table in self._tables.values()
                for entries in table.values()
                for _, route_type in entries
            )
        return self._best_rows


def device_rib_fingerprint(rib: DeviceRib) -> str:
    """Content fingerprint of one device RIB (hex SHA-256 digest).

    Hashes the sorted identity rows — the same row identity the chaos
    harness's ``rib_fingerprint`` uses for whole-world equivalence — so two
    RIBs with identical routing content collide by construction.
    """
    digest = hashlib.sha256()
    for row_repr in sorted(repr(row.identity()) for row in rib.all_rows()):
        digest.update(row_repr.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def touched_slots(*maps: Dict[str, Slots]) -> Dict[str, Set[Tuple[str, Prefix]]]:
    """Per device, every ``(vrf, prefix)`` slot named in ``maps``."""
    touched: Dict[str, Set[Tuple[str, Prefix]]] = {}
    for slots in maps:
        for name, tables in slots.items():
            mine = touched.setdefault(name, set())
            for vrf, prefixes in tables.items():
                mine.update((vrf, prefix) for prefix in prefixes)
    return touched


def rib_diff(
    base_ribs: Mapping[str, DeviceRib],
    updated_ribs: Mapping[str, DeviceRib],
    covers: Optional[Callable[[Prefix], bool]] = None,
    whole: Container[str] = (),
) -> Tuple[Dict[str, Slots], Dict[str, Slots]]:
    """``(dropped, installed)``: the slots where two device-RIB maps differ.

    Per device, ``dropped`` lists the base slots whose entries the updated
    RIB does not hold, in base table order, and ``installed`` the updated
    slots the base does not hold, in updated table order: what
    :meth:`DeviceRib.derive` and a :class:`GlobalRibView` patch take. A
    table is compared whole first; only an unequal one is compared slot by
    slot.

    ``covers`` limits the comparison of a device both maps hold to the
    slots at the prefixes it accepts (asked once per distinct prefix),
    unless the device is one of ``whole``; a device one map lacks differs
    at every slot.
    """
    pick = _prefix_filter(covers) if covers is not None else None
    differing: Dict[Tuple[str, str], Set[Prefix]] = {}
    dropped: Dict[str, Slots] = {}
    for name, rib in base_ribs.items():
        other = updated_ribs.get(name)
        if other is rib:
            continue
        theirs = other._tables if other is not None else {}
        keep = None if other is None or name in whole else pick
        for vrf, table in rib._tables.items():
            differ = _differing(table, theirs.get(vrf, {}), keep)
            if differ:
                differing[name, vrf] = differ
                gone = _in_order(table, differ)
                if gone:
                    dropped.setdefault(name, {})[vrf] = gone
    installed: Dict[str, Slots] = {}
    for name, rib in updated_ribs.items():
        base = base_ribs.get(name)
        if base is rib:
            continue
        mine = base._tables if base is not None else {}
        keep = None if base is None or name in whole else pick
        for vrf, table in rib._tables.items():
            if vrf in mine:  # compared from the base side already
                differ = differing.get((name, vrf), ())
            else:
                differ = _differing({}, table, keep)
            new = _in_order(table, differ)
            if new:
                installed.setdefault(name, {})[vrf] = new
    return dropped, installed


def _differing(table: dict, their: dict, pick) -> Set[Prefix]:
    """The prefixes (of those ``pick`` keeps) whose entries two tables
    hold differently."""
    if table is their or table == their:
        return set()
    keys = set(table)  # from the tables' stored hashes, at C speed
    keys.update(their)
    if pick is not None:
        keys = pick(keys)
    return {prefix for prefix in keys if table.get(prefix) != their.get(prefix)}


def _in_order(table: dict, prefixes) -> Dict[Prefix, None]:
    """``prefixes`` that ``table`` holds, in table order; only two or more
    of fewer than all walk the table."""
    held = table.keys() & prefixes
    if len(held) == len(table):
        return dict.fromkeys(table)
    if len(held) <= 1:
        return dict.fromkeys(held)
    return {prefix: None for prefix in table if prefix in held}


def _prefix_filter(
    covers: Callable[[Prefix], bool],
) -> Callable[[Set[Prefix]], Set[Prefix]]:
    """``covers`` as a set filter, asking once per distinct prefix."""
    seen: Set[Prefix] = set()
    kept: Set[Prefix] = set()

    def pick(prefixes: Set[Prefix]) -> Set[Prefix]:
        fresh = prefixes - seen
        if fresh:
            seen.update(fresh)
            kept.update(filter(covers, fresh))
        prefixes &= kept  # set operations: stored hashes, C speed
        return prefixes

    return pick


class StaleViewError(RuntimeError):
    """A :class:`GlobalRibView` was read after one of its RIBs changed."""


class GlobalRib:
    """The global RIB: all devices' routes in one table (Figure 6)."""

    def __init__(self, rows: Optional[Iterable[RibRoute]] = None) -> None:
        self.rows: List[RibRoute] = list(rows) if rows is not None else []

    @classmethod
    def from_device_ribs(cls, ribs: Iterable[DeviceRib]) -> "GlobalRib":
        """Every row of ``ribs``, as a view: nothing is flattened yet."""
        return GlobalRibView.over(ribs, best_only=False)

    def add(self, row: RibRoute) -> None:
        self.rows.append(row)

    def extend(self, rows: Iterable[RibRoute]) -> None:
        self.rows.extend(rows)

    def identity_set(self) -> FrozenSet[Tuple]:
        return frozenset(row.identity() for row in self.rows)

    def best_routes(self) -> "GlobalRib":
        """The best/ECMP rows (of a view: a best-only view, still unbuilt)."""
        return self._best_routes()

    def _best_routes(self) -> "GlobalRib":
        return GlobalRib(row for row in self.rows if row.route_type in _BEST_TYPES)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[RibRoute]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalRib):
            return NotImplemented
        return self.identity_set() == other.identity_set()

    def __str__(self) -> str:
        lines = [f"GlobalRib with {len(self.rows)} rows"]
        for row in self.rows[:20]:
            lines.append(f"  {row}")
        if len(self.rows) > 20:
            lines.append(f"  ... and {len(self.rows) - 20} more")
        return "\n".join(lines)


class GlobalRibView(GlobalRib):
    """A read-only global RIB over device RIBs, flattened only when read.

    ``len()`` is counted off the RIBs without building a row; ``rows`` are
    built on first read and kept. A view raises :class:`StaleViewError`
    when read after one of its RIBs changed.

    The constructor makes the best-only view of a spliced or re-simulated
    world as a patch of ``base``, the view of the base world: ``base`` less
    its rows at the ``dropped`` slots, plus the rows at the ``installed``
    ones (a splice's slots, or :func:`rib_diff`'s). Every other row is shared
    with ``base``, and a row's identity contains its device, VRF and
    prefix, so no shared row can equal a dropped or an installed one: RCL
    compares ``PRE`` and ``POST`` through the two short lists alone. The
    ``len()`` of a patch is arithmetic over the three parts.
    """

    base: Optional[GlobalRib] = None
    _rows: Optional[List[RibRoute]] = None

    def __init__(
        self,
        base: GlobalRib,
        base_ribs: Mapping[str, DeviceRib],
        device_ribs: Mapping[str, DeviceRib],
        dropped: Mapping[str, Slots],
        installed: Mapping[str, Slots],
    ) -> None:
        self._watch(device_ribs.values(), best_only=True)
        self.base = base
        self.dropped = [
            row
            for name, slots in dropped.items()
            if name in base_ribs
            for row in base_ribs[name].all_rows(best_only=True, slots=slots)
        ]
        self.installed = [
            row
            for name, slots in installed.items()
            for row in device_ribs[name].all_rows(best_only=True, slots=slots)
        ]

    @classmethod
    def over(cls, ribs: Iterable[DeviceRib], best_only: bool) -> "GlobalRibView":
        """The view of ``ribs`` on its own (not a patch)."""
        view = cls.__new__(cls)
        view._watch(ribs, best_only)
        return view

    def _watch(self, ribs: Iterable[DeviceRib], best_only: bool) -> None:
        self._ribs = tuple(ribs)
        self._generations = [rib.generation for rib in self._ribs]
        self.best_only = best_only

    def _check(self) -> None:
        for rib, generation in zip(self._ribs, self._generations):
            if rib.generation != generation:
                raise StaleViewError(f"the RIB of {rib.device} changed under the view")

    @property
    def built(self) -> bool:
        """Whether the rows have been flattened into a table."""
        return self._rows is not None

    @property
    def rows(self) -> List[RibRoute]:  # type: ignore[override]
        self._check()
        if self._rows is None:
            self._rows = [
                row for rib in self._ribs for row in rib.all_rows(self.best_only)
            ]
        return self._rows

    def __len__(self) -> int:
        self._check()
        if self.base is not None:
            return len(self.base) - len(self.dropped) + len(self.installed)
        if self.best_only:
            return sum(rib.best_row_count() for rib in self._ribs)
        return sum(rib.route_count() for rib in self._ribs)

    def _best_routes(self) -> GlobalRib:
        self._check()
        return self if self.best_only else GlobalRibView.over(self._ribs, True)

    def add(self, row: RibRoute) -> None:
        raise TypeError("a global RIB view is read-only")

    def extend(self, rows: Iterable[RibRoute]) -> None:
        raise TypeError("a global RIB view is read-only")


class WithGlobalRib:
    """Mixin giving a result that carries ``device_ribs`` its global RIB."""

    device_ribs: Mapping[str, DeviceRib]

    def global_rib(self, best_only: bool = False) -> GlobalRib:
        rib = GlobalRib.from_device_ribs(self.device_ribs.values())
        return rib.best_routes() if best_only else rib
