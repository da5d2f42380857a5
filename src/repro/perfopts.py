"""Process-wide switches for the hot-path optimization layers.

The simulation core carries several optimization layers (parse-time and
route-attribute interning, topology indices, the spread-mode forwarding
memo, §3.1 route equivalence classes). They are *semantically
transparent*: on or off, a simulation must produce byte-identical RIBs.
The flags exist for tests and benchmarks that compare the two: the perf
harness (``benchmarks/perf``) and the e2e oracle arm measure the layers
off, and the soundness suite (``pytest --perfopts-off``) re-runs seeded
simulations without them.

:data:`OPTS` is one plain instance shared by every thread of the process;
:func:`configured` and :func:`all_disabled` set flags for a block and
restore the previous values on exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator


@dataclass(slots=True)
class PerfOptions:
    """Feature flags for each optimization layer (all on by default)."""

    #: intern ``Prefix.parse`` / ``IPAddress.parse`` results
    intern_parse: bool = True
    #: one-time topology indices: interface-address -> owner, ingress-ACL
    #: lookup per (neighbor, router), and the up-link adjacency cache
    #: (version-invalidated on every topology mutation)
    topo_index: bool = True
    #: memoize spread-mode forwarding decisions per
    #: (router, ingress-ACL class, flow EC signature)
    spread_memo: bool = True
    #: flyweight route-attribute storage: intern AS paths, community sets,
    #: and full route-attribute tuples so duplicate copies collapse to one
    #: shared object (``repro.routing.interning``)
    intern_routes: bool = True
    #: §3.1 route equivalence classes in ``RouteSimulator``: solve the BGP
    #: fixpoint for one representative prefix group per class and clone its
    #: RIB rows onto the member prefixes. Off is the naive full solve the
    #: benchmark's oracle arm (``all_disabled``) compares against.
    route_ecs: bool = True


#: The flag names, in declaration order.
FLAG_NAMES = tuple(f.name for f in fields(PerfOptions))

#: The process-wide option set consulted by the hot paths.
OPTS = PerfOptions()


def reset() -> None:
    """Restore every flag to its default (all optimizations on)."""
    defaults = PerfOptions()
    for name in FLAG_NAMES:
        setattr(OPTS, name, getattr(defaults, name))


@contextmanager
def configured(**flags: bool) -> Iterator[PerfOptions]:
    """Set the given flags (by field name) for the block, then restore."""
    unknown = set(flags) - set(FLAG_NAMES)
    if unknown:
        raise ValueError(f"unknown perf option(s): {sorted(unknown)}")
    saved = {name: getattr(OPTS, name) for name in FLAG_NAMES}
    for name, value in flags.items():
        setattr(OPTS, name, value)
    try:
        yield OPTS
    finally:
        for name, value in saved.items():
            setattr(OPTS, name, value)


def all_disabled() -> Iterator[PerfOptions]:
    """Disable every optimization layer for the block, then restore."""
    return configured(**{name: False for name in FLAG_NAMES})
