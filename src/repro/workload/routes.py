"""Input route generation (substitute for the route monitoring feed).

Two populations, mirroring §3.2's observation about uneven propagation:

* **ISP routes** — injected at border routers from their ISP peers, long AS
  paths, filtered/tagged at the border, propagate few hops.
* **DC routes** — injected at DC edges with short or empty AS paths
  (aggregate routes from the data centers, §5.3), propagate deep into the
  WAN through the RRs.

Prefixes come from disjoint pools so the ordering heuristic has real
structure to exploit.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.routing.inputs import InputRoute, inject_external_route
from repro.workload.wan import ISP_ASN_BASE, WanInventory

#: ISP route pool: 100.64.0.0/10 sliced into /24s
ISP_POOL_BASE = (100 << 24) | (64 << 16)
#: DC route pool: 10.0.0.0/8 sliced into /24s
DC_POOL_BASE = 10 << 24


def _pool_prefix(base: int, index: int) -> str:
    value = base + (index << 8)
    return f"{(value >> 24) & 255}.{(value >> 16) & 255}.{(value >> 8) & 255}.0/24"


def generate_input_routes(
    inventory: WanInventory,
    n_prefixes: int = 200,
    isp_fraction: float = 0.5,
    redundancy: int = 2,
    seed: int = 11,
) -> List[InputRoute]:
    """Generate input routes for ``n_prefixes`` prefixes.

    ``redundancy`` injects each prefix at that many distinct routers (the
    same prefix announced at several borders/edges), which is what makes
    same-prefix grouping in the partitioner matter.
    """
    rng = random.Random(seed)
    routes: List[InputRoute] = []
    n_isp = int(n_prefixes * isp_fraction)
    n_dc = n_prefixes - n_isp

    # ISP routes are injected at the ISP routers themselves, so they cross
    # the borders' eBGP sessions and import policies — the policies change
    # plans actually edit.
    isps = inventory.isps or inventory.borders or ["region0-border0"]
    edges = inventory.dc_edges or ["region0-dcedge0"]

    # ISPs announce prefixes in blocks sharing identical attributes (one
    # origin customer announces many prefixes with one AS path) — this is
    # what makes the §3.1 route-EC reduction (~4x on the paper's WAN) real.
    # Redundant announcements alternate between same-region ISP pairs (the
    # multi-homing pattern that creates intra-region ECMP at the RRs) and
    # cross-region pairs.
    by_region: dict = {}
    borders = inventory.borders
    if borders and len(isps) % len(borders) == 0:
        # ISPs were created per border, in border order (see generate_wan):
        # isps[i] attaches to borders[i // per_border].
        per_border = len(isps) // len(borders)
        for i, isp in enumerate(isps):
            border = borders[i // per_border]
            region = border.rsplit("-", 1)[0]
            by_region.setdefault(region, []).append(isp)
    same_region_pools = [group for group in by_region.values() if len(group) >= 2]

    block_size = 4
    block_attrs = {}
    for index in range(n_isp):
        prefix = _pool_prefix(ISP_POOL_BASE, index)
        block = index // block_size
        if block not in block_attrs:
            base_asn = ISP_ASN_BASE + rng.randint(1, 40)
            path_len = rng.randint(2, 6)
            if redundancy >= 2 and same_region_pools and block % 2 == 0:
                pool = same_region_pools[block // 2 % len(same_region_pools)]
                injectors = rng.sample(pool, min(redundancy, len(pool)))
            else:
                injectors = rng.sample(isps, min(redundancy, len(isps)))
            block_attrs[block] = (
                tuple(base_asn + i for i in range(path_len)),
                frozenset({f"{base_asn % 65000}:10"}),
                rng.choice((0, 0, 10)),
                injectors,
            )
        as_path, communities, med, injectors = block_attrs[block]
        for router in injectors:
            routes.append(
                inject_external_route(
                    router, prefix, as_path, communities=communities, med=med
                )
            )

    for index in range(n_dc):
        prefix = _pool_prefix(DC_POOL_BASE, index)
        block = index // block_size
        dc_rng = random.Random(f"{seed}-dc-{block}")
        injectors = dc_rng.sample(edges, min(redundancy, len(edges)))
        # DC aggregates: empty or single-hop AS paths (§5.3).
        as_path: Tuple[int, ...] = () if dc_rng.random() < 0.5 else (64601,)
        for router in injectors:
            routes.append(
                inject_external_route(
                    router,
                    prefix,
                    as_path,
                    communities=frozenset({"64512:200"}),
                )
            )
    return routes
