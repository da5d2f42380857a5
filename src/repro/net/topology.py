"""Topology model: routers, interfaces, links, and failure state.

Hoyan's network model building service parses live topology data into this
structure (§2.2). Change plans can add/remove routers and links, and the
k-failure verifier (§6.2) toggles link/router failure state without mutating
the underlying inventory.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro import perfopts
from repro.net.addr import IPAddress, as_address


class TopologyError(Exception):
    """Raised for inconsistent topology operations (duplicate names, etc.)."""


@dataclass(frozen=True)
class Interface:
    """A router interface with an optional numbered address.

    ``bandwidth`` is in bits/second and bounds the link load checks of
    traffic-load intents.
    """

    router: str
    name: str
    address: Optional[IPAddress] = None
    prefix_length: int = 31
    bandwidth: float = 100e9

    @property
    def key(self) -> Tuple[str, str]:
        return (self.router, self.name)

    def __str__(self) -> str:
        return f"{self.router}:{self.name}"


@dataclass(frozen=True)
class Link:
    """A bidirectional link between two interfaces.

    ``igp_cost`` is the default IS-IS metric for both directions;
    per-direction overrides live in the device IS-IS config. ``group`` names
    a link group (e.g. a LAG or a set of parallel links used for "flows
    traversing the link group should use the new link for ECMP" intents).
    """

    a: Interface
    b: Interface
    igp_cost: int = 10
    group: Optional[str] = None

    @property
    def key(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset((self.a.key, self.b.key))

    @property
    def endpoints(self) -> Tuple[str, str]:
        return (self.a.router, self.b.router)

    def other_end(self, router: str) -> Interface:
        """The interface on the far side from ``router``."""
        if self.a.router == router:
            return self.b
        if self.b.router == router:
            return self.a
        raise TopologyError(f"{router} is not an endpoint of link {self}")

    def interface_on(self, router: str) -> Interface:
        """The interface on ``router``'s side."""
        if self.a.router == router:
            return self.a
        if self.b.router == router:
            return self.b
        raise TopologyError(f"{router} is not an endpoint of link {self}")

    def __str__(self) -> str:
        return f"{self.a}<->{self.b}"


@dataclass
class Router:
    """A router in the topology.

    ``vendor`` names the vendor behaviour profile (``repro.net.vendors``);
    ``asn`` is the BGP autonomous system number; ``role`` is free-form
    operator metadata (e.g. ``"border"``, ``"rr"``, ``"core"``) used by
    workload generators and audits; ``group`` names a redundancy group for
    "routes on the new router should be the same as other routers in the
    group" intents.
    """

    name: str
    vendor: str = "vendor-a"
    asn: int = 64512
    router_id: Optional[IPAddress] = None
    role: str = "core"
    region: str = "default"
    group: Optional[str] = None

    def __post_init__(self) -> None:
        if self.router_id is None:
            # Derive a stable router-id from the name; real deployments
            # configure it explicitly, the workload generator always does.
            digest = zlib.crc32(self.name.encode("utf-8")) or 1
            self.router_id = IPAddress(4, digest)


class Topology:
    """Mutable inventory of routers and links plus a failure overlay.

    The failure overlay (``fail_link`` / ``fail_router``) does not remove
    inventory; ``up_links`` and ``neighbors`` honour it, so the k-failure
    verifier can explore failure sets cheaply and restore with
    :meth:`clear_failures`.
    """

    def __init__(self) -> None:
        self._routers: Dict[str, Router] = {}
        self._links: Dict[FrozenSet[Tuple[str, str]], Link] = {}
        self._adjacency: Dict[str, List[Link]] = {}
        self._failed_links: Set[FrozenSet[Tuple[str, str]]] = set()
        self._failed_routers: Set[str] = set()
        #: number of the next ``eth<n>`` pair :meth:`connect` creates
        self._next_iface = 1
        #: monotonically increasing mutation counter; every inventory or
        #: failure-overlay change bumps it so derived caches (the indices
        #: below, the spread memo) can detect staleness in O(1).
        self._version = 0
        self._addr_index: Optional[Dict[IPAddress, str]] = None
        self._addr_index_version = -1
        self._ingress_iface: Dict[Tuple[str, str], Optional[str]] = {}
        self._ingress_iface_version = -1
        self._up_link_cache: Dict[Tuple[str, str], bool] = {}
        self._up_link_version = -1

    @property
    def version(self) -> int:
        """Mutation counter (bumped by inventory and failure-overlay ops)."""
        return self._version

    def _touch(self) -> None:
        self._version += 1

    # -- inventory ---------------------------------------------------------

    def add_router(self, router: Router) -> Router:
        if router.name in self._routers:
            raise TopologyError(f"duplicate router {router.name!r}")
        self._routers[router.name] = router
        self._adjacency[router.name] = []
        self._touch()
        return router

    def remove_router(self, name: str) -> None:
        if name not in self._routers:
            raise TopologyError(f"unknown router {name!r}")
        for link in list(self._adjacency[name]):
            self.remove_link(link)
        del self._routers[name]
        del self._adjacency[name]
        self._failed_routers.discard(name)
        self._touch()

    def add_link(self, link: Link) -> Link:
        for endpoint in link.endpoints:
            if endpoint not in self._routers:
                raise TopologyError(f"link endpoint {endpoint!r} not in topology")
        if link.key in self._links:
            raise TopologyError(f"duplicate link {link}")
        self._links[link.key] = link
        self._adjacency[link.a.router].append(link)
        self._adjacency[link.b.router].append(link)
        self._touch()
        return link

    def connect(
        self,
        a: str,
        b: str,
        igp_cost: int = 10,
        bandwidth: float = 100e9,
        group: Optional[str] = None,
        a_addr: Optional[str] = None,
        b_addr: Optional[str] = None,
    ) -> Link:
        """Convenience: create interfaces on both ends and link them."""
        n = self._next_iface
        self._next_iface += 1
        ia = Interface(
            a,
            f"eth{n}",
            address=as_address(a_addr) if a_addr else None,
            bandwidth=bandwidth,
        )
        ib = Interface(
            b,
            f"eth{n}",
            address=as_address(b_addr) if b_addr else None,
            bandwidth=bandwidth,
        )
        return self.add_link(Link(ia, ib, igp_cost=igp_cost, group=group))

    def remove_link(self, link: Link) -> None:
        if link.key not in self._links:
            raise TopologyError(f"unknown link {link}")
        del self._links[link.key]
        self._adjacency[link.a.router].remove(link)
        self._adjacency[link.b.router].remove(link)
        self._failed_links.discard(link.key)
        self._touch()

    # -- lookups -----------------------------------------------------------

    def router(self, name: str) -> Router:
        try:
            return self._routers[name]
        except KeyError:
            raise TopologyError(f"unknown router {name!r}") from None

    def has_router(self, name: str) -> bool:
        return name in self._routers

    @property
    def routers(self) -> List[Router]:
        return list(self._routers.values())

    @property
    def router_names(self) -> List[str]:
        return list(self._routers)

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    def find_link(self, a: str, b: str) -> Optional[Link]:
        """The (single) link between routers a and b, or None."""
        for link in self._adjacency.get(a, []):
            if link.other_end(a).router == b:
                return link
        return None

    def links_between(self, a: str, b: str) -> List[Link]:
        return [l for l in self._adjacency.get(a, []) if l.other_end(a).router == b]

    def links_of(self, router: str) -> List[Link]:
        return list(self._adjacency.get(router, []))

    def links_in_group(self, group: str) -> List[Link]:
        return [l for l in self._links.values() if l.group == group]

    # -- failure overlay ---------------------------------------------------

    def fail_link(self, link: Link) -> None:
        if link.key not in self._links:
            raise TopologyError(f"unknown link {link}")
        self._failed_links.add(link.key)
        self._touch()

    def restore_link(self, link: Link) -> None:
        self._failed_links.discard(link.key)
        self._touch()

    def fail_router(self, name: str) -> None:
        if name not in self._routers:
            raise TopologyError(f"unknown router {name!r}")
        self._failed_routers.add(name)
        self._touch()

    def restore_router(self, name: str) -> None:
        self._failed_routers.discard(name)
        self._touch()

    def clear_failures(self) -> None:
        self._failed_links.clear()
        self._failed_routers.clear()
        self._touch()

    def link_is_up(self, link: Link) -> bool:
        return (
            link.key not in self._failed_links
            and link.a.router not in self._failed_routers
            and link.b.router not in self._failed_routers
        )

    def link_is_failed(self, link: Link) -> bool:
        """Whether the link itself is in the failure overlay.

        Distinct from ``not link_is_up``: a link whose endpoint router
        failed is down without being failed, which matters to callers that
        layer additional failures and must restore exactly what they added.
        """
        return link.key in self._failed_links

    def router_is_up(self, name: str) -> bool:
        return name not in self._failed_routers

    @property
    def up_links(self) -> List[Link]:
        return [l for l in self._links.values() if self.link_is_up(l)]

    def neighbors(self, router: str) -> Iterator[Tuple[str, Link]]:
        """Yield ``(neighbor_name, link)`` over up links of an up router."""
        if not self.router_is_up(router):
            return
        for link in self._adjacency.get(router, []):
            if self.link_is_up(link):
                yield link.other_end(router).router, link

    # -- derived indices (version-invalidated) -------------------------------
    #
    # The traffic fast path asks three questions millions of times per run:
    # who owns an interface address, which interface on B faces A (for the
    # ingress-ACL check), and whether A and B share an up link. Each answer
    # is cached against :attr:`version`, so any inventory or failure-overlay
    # mutation invalidates all three. ``perfopts.OPTS.topo_index`` disables
    # the caches (falling back to the linear scans) for A/B measurement.

    def owner_of_interface_address(self, address: IPAddress) -> Optional[str]:
        """The router owning an interface with this address, if any."""
        if not perfopts.OPTS.topo_index:
            for link in self._links.values():
                for iface in (link.a, link.b):
                    if iface.address == address:
                        return iface.router
            return None
        if self._addr_index is None or self._addr_index_version != self._version:
            index: Dict[IPAddress, str] = {}
            for link in self._links.values():
                for iface in (link.a, link.b):
                    if iface.address is not None and iface.address not in index:
                        index[iface.address] = iface.router
            self._addr_index = index
            self._addr_index_version = self._version
        return self._addr_index.get(address)

    def ingress_interface_name(self, came_from: str, router: str) -> Optional[str]:
        """Name of the interface on ``router`` facing ``came_from``."""
        if not perfopts.OPTS.topo_index:
            link = self.find_link(came_from, router)
            return link.interface_on(router).name if link is not None else None
        if self._ingress_iface_version != self._version:
            self._ingress_iface = {}
            self._ingress_iface_version = self._version
        key = (came_from, router)
        if key not in self._ingress_iface:
            link = self.find_link(came_from, router)
            self._ingress_iface[key] = (
                link.interface_on(router).name if link is not None else None
            )
        return self._ingress_iface[key]

    def has_up_link(self, a: str, b: str) -> bool:
        """Whether routers ``a`` and ``b`` are connected by an up link."""
        if not perfopts.OPTS.topo_index:
            return self.find_link(a, b) is not None and any(
                self.link_is_up(l) for l in self.links_between(a, b)
            )
        if self._up_link_version != self._version:
            self._up_link_cache = {}
            self._up_link_version = self._version
        key = (a, b)
        hit = self._up_link_cache.get(key)
        if hit is None:
            hit = self.find_link(a, b) is not None and any(
                self.link_is_up(l) for l in self.links_between(a, b)
            )
            self._up_link_cache[key] = hit
        return hit

    # -- misc ----------------------------------------------------------------

    def copy(self) -> "Topology":
        """Structural copy sharing immutable Router/Link objects and the version.

        The copy numbers :meth:`connect` interfaces on from where the source
        left off, so a link added to it gets names no existing link carries.
        """
        clone = Topology()
        clone._routers = dict(self._routers)
        clone._links = dict(self._links)
        clone._adjacency = {r: list(links) for r, links in self._adjacency.items()}
        clone._failed_links = set(self._failed_links)
        clone._failed_routers = set(self._failed_routers)
        clone._next_iface = self._next_iface
        clone._version = self._version
        return clone

    def __eq__(self, other: object) -> bool:
        """Equal routers, links and failure overlay (what a change can move)."""
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self._routers == other._routers
            and self._links == other._links
            and self._failed_links == other._failed_links
            and self._failed_routers == other._failed_routers
        )

    def stats(self) -> Dict[str, int]:
        return {
            "routers": len(self._routers),
            "links": len(self._links),
            "failed_links": len(self._failed_links),
            "failed_routers": len(self._failed_routers),
        }

    def __contains__(self, name: str) -> bool:
        return name in self._routers

    def __len__(self) -> int:
        return len(self._routers)
