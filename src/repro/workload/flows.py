"""Input flow generation (substitute for the NetFlow/sFlow feed).

Flows enter at DC edges and ISP borders towards destinations drawn from the
generated route prefixes. Volumes are heavy-tailed (a few elephant flows
dominate, as in production traffic), which is what makes the §5.2
root-cause workflow's "identify a large-volume flow on the link" step
meaningful.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.net.addr import IPAddress
from repro.routing.inputs import InputRoute
from repro.traffic.flow import Flow, make_flow
from repro.workload.wan import WanInventory


def generate_flows(
    inventory: WanInventory,
    input_routes: Sequence[InputRoute],
    n_flows: int = 1000,
    seed: int = 13,
) -> List[Flow]:
    """Generate flows whose destinations fall inside the input prefixes."""
    rng = random.Random(seed)
    prefixes = sorted(
        {item.route.prefix for item in input_routes},
        key=lambda p: p.ordering_key(),
    )
    if not prefixes:
        raise ValueError("generate_flows needs at least one input route")
    ingresses = inventory.dc_edges + inventory.borders
    if not ingresses:
        raise ValueError("inventory has no ingress routers")

    flows: List[Flow] = []
    for index in range(n_flows):
        prefix = prefixes[rng.randrange(len(prefixes))]
        offset = rng.randrange(max(1, prefix.size - 1))
        dst = IPAddress(prefix.family, prefix.value + offset)
        ingress = ingresses[rng.randrange(len(ingresses))]
        # Pareto-like volume: 80% mice, 20% elephants.
        volume = (
            rng.uniform(1e6, 10e6)
            if rng.random() < 0.8
            else rng.uniform(100e6, 2e9)
        )
        flows.append(
            make_flow(
                ingress,
                src=f"192.168.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                dst=str(dst),
                src_port=rng.randrange(1024, 65535),
                dst_port=rng.choice((80, 443, 8080, 53)),
                volume=volume,
            )
        )
    return flows
