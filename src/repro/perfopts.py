"""Global switches for the hot-path optimizations.

The simulation core carries several optimization layers (parse-time and
route-attribute interning, topology indices, the spread-mode forwarding
memo, §3.1 route equivalence classes). They are all *semantically
transparent*: enabled or disabled, a simulation must produce
byte-identical RIBs and statistics. This module is the single switchboard
that turns them off, which exists for three reasons:

* the perf harness (``benchmarks/perf``) measures the unoptimized baseline
  by disabling the layers, so ``BENCH_perf.json`` carries true
  before/after numbers on the same code revision;
* the soundness test suite re-runs seeded simulations with every layer
  disabled and asserts the results are identical to the cached run; and
* the ``repro serve`` daemon runs concurrent jobs that may request
  different flag sets, which must not leak into each other.

**Scoping.** :data:`OPTS` looks like a plain :class:`PerfOptions` instance
but is a proxy: attribute reads consult the calling thread's override
frames first and fall back to the process-wide base options. The context
managers (:func:`configured`, :func:`all_disabled`, :func:`applied`) push a
per-thread frame, so two threads inside different ``configured()`` blocks
see different flags — this is what isolates concurrent server jobs. A bare
``OPTS.spread_memo = False`` outside any frame still mutates the
process-wide base, preserving the historical single-threaded behaviour.

Worker threads spawned *inside* a scoped block (the distsim thread pool)
do not inherit thread-local frames automatically; the spawn site captures
:func:`effective` in the parent and re-enters it via :func:`applied` in the
child. The daemon's forked job children inherit the forking thread's
frames through ``fork``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List


@dataclass
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

#: Process-wide base values, read when no thread-local frame overrides them.
_BASE = PerfOptions()


class _OptionsProxy:
    """Thread-scoped view over the process-wide :class:`PerfOptions`.

    Reads walk the calling thread's frame stack innermost-first, then fall
    back to the base. Writes land in the innermost frame when one is open
    (so mutations inside ``configured()`` stay scoped to that thread and
    block) and in the process-wide base otherwise.
    """

    __slots__ = ("_tls",)

    def __init__(self) -> None:
        object.__setattr__(self, "_tls", threading.local())

    def _frames(self) -> List[Dict[str, bool]]:
        frames = getattr(self._tls, "frames", None)
        if frames is None:
            frames = []
            self._tls.frames = frames
        return frames

    def __setattr__(self, name: str, value: bool) -> None:
        if name not in FLAG_NAMES:
            raise AttributeError(f"unknown perf option {name!r}")
        frames = self._frames()
        if frames:
            frames[-1][name] = value
        else:
            setattr(_BASE, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OPTS({effective()!r})"


def _flag_reader(name: str) -> property:
    # One property per flag: hot paths read flags per call, and a property
    # skips the failed instance lookup a ``__getattr__`` fallback pays.
    def read(proxy: _OptionsProxy) -> bool:
        frames = proxy._tls.__dict__.get("frames")
        if frames:
            for frame in reversed(frames):
                if name in frame:
                    return frame[name]
        return getattr(_BASE, name)

    return property(read)


for _name in FLAG_NAMES:
    setattr(_OptionsProxy, _name, _flag_reader(_name))
del _name


#: The process-wide option set consulted by the hot paths.
OPTS = _OptionsProxy()


def effective() -> PerfOptions:
    """The calling thread's effective flags as a plain snapshot.

    Capture this before handing work to a pool and re-enter it in the
    worker via :func:`applied`, so worker threads run under the flags of
    the code that spawned them rather than the process-wide base.
    """
    return PerfOptions(**{name: getattr(OPTS, name) for name in FLAG_NAMES})


def reset() -> None:
    """Restore every flag to its default (all optimizations on).

    Clears the calling thread's override frames and resets the base.
    """
    OPTS._frames().clear()
    defaults = PerfOptions()
    for name in FLAG_NAMES:
        setattr(_BASE, name, getattr(defaults, name))


@contextmanager
def _frame(values: Dict[str, bool]) -> Iterator[PerfOptions]:
    frames = OPTS._frames()
    frames.append(dict(values))
    try:
        yield OPTS  # type: ignore[misc]
    finally:
        frames.pop()


def all_disabled() -> Iterator[PerfOptions]:
    """Temporarily disable every optimization layer (calling thread only)."""
    return _frame({name: False for name in FLAG_NAMES})


def configured(**flags: bool) -> Iterator[PerfOptions]:
    """Temporarily set the given flags (by field name, calling thread only)."""
    unknown = set(flags) - set(FLAG_NAMES)
    if unknown:
        raise ValueError(f"unknown perf option(s): {sorted(unknown)}")
    return _frame(flags)


def applied(options: PerfOptions) -> Iterator[PerfOptions]:
    """Temporarily apply a full :func:`effective` snapshot (all fields)."""
    return _frame({name: getattr(options, name) for name in FLAG_NAMES})
