"""Segment routing: tunnel resolution and the Figure 9 IGP-cost VSB.

An SR policy configured on device X towards endpoint E steers traffic whose
BGP next hop is owned by E through the policy's segment list. Two effects are
modelled:

* **Forwarding**: the tunnel path is the concatenation of IGP shortest paths
  through the segments, so traffic simulation follows the tunnel instead of
  the plain IGP path.
* **Decision process**: on vendors with ``sr_tunnel_zeroes_igp_cost``
  (vendor A — the Figure 9 root cause), the IGP-cost tiebreak sees cost 0
  for SR-reached next hops, which can suppress ECMP with non-SR paths.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.net.device import DeviceConfig, SrPolicyConfig
from repro.net.model import NetworkModel
from repro.routing.isis import IgpState


def active_sr_policy(
    device: DeviceConfig, endpoint: str
) -> Optional[SrPolicyConfig]:
    """The enabled SR policy on ``device`` steering towards ``endpoint``."""
    return device.sr_policy_towards(endpoint)


def tunnel_path(
    model: NetworkModel,
    igp: IgpState,
    src: str,
    policy: SrPolicyConfig,
) -> Optional[List[str]]:
    """Resolve an SR policy to a concrete router path from ``src``.

    The path walks the IGP shortest path through each segment in order and
    finally to the endpoint. Returns None when any leg is unreachable (the
    tunnel is down and forwarding falls back to the plain IGP path).
    """
    waypoints = list(policy.segments) + [policy.endpoint]
    path: List[str] = [src]
    current = src
    for waypoint in waypoints:
        if waypoint == current:
            continue
        leg = igp.shortest_path(current, waypoint)
        if leg is None:
            return None
        path.extend(leg[1:])
        current = waypoint
    return path


def effective_igp_cost(
    device: DeviceConfig,
    igp: IgpState,
    nexthop_owner: Optional[str],
    plain_cost: float,
) -> float:
    """IGP cost as seen by the BGP decision process, SR VSB applied.

    On a vendor whose SR implementation reports tunnel cost 0, a usable SR
    policy towards the next hop's owner masks the real IGP distance.
    """
    if nexthop_owner is None:
        return plain_cost
    policy = active_sr_policy(device, nexthop_owner)
    if policy is None:
        return plain_cost
    if device.vendor.sr_tunnel_zeroes_igp_cost:
        return 0.0
    return plain_cost


def first_tunnel_hops(
    model: NetworkModel,
    igp: IgpState,
    src: str,
    policy: SrPolicyConfig,
) -> Tuple[str, ...]:
    """First physical hop(s) of the tunnel from ``src`` (for forwarding)."""
    first_target = first_tunnel_target(src, policy)
    if first_target is None:
        return ()
    return igp.hops_towards(src, first_target)


def first_tunnel_target(src: str, policy: SrPolicyConfig) -> Optional[str]:
    """The first waypoint of the tunnel from ``src`` other than ``src``."""
    waypoints = list(policy.segments) + [policy.endpoint]
    return next((w for w in waypoints if w != src), None)
