"""Segment routing: tunnel steering and the Figure 9 IGP-cost VSB.

An SR policy configured on device X towards endpoint E steers traffic whose
BGP next hop is owned by E through the policy's segment list. Two effects are
modelled:

* **Forwarding**: X sends the traffic along its IGP next hops towards the
  tunnel's first waypoint (:func:`first_tunnel_target`) instead of towards
  E; when that waypoint is unreachable the tunnel is down and forwarding
  falls back to the plain IGP next hops. Routers further along resolve the
  BGP next hop on their own, so later segments are not enforced.
* **Decision process**: on vendors with ``sr_tunnel_zeroes_igp_cost``
  (vendor A — the Figure 9 root cause), the IGP-cost tiebreak sees cost 0
  for SR-reached next hops, which can suppress ECMP with non-SR paths.
"""

from __future__ import annotations

from typing import Optional

from repro.net.device import DeviceConfig, SrPolicyConfig


def effective_igp_cost(
    device: DeviceConfig, nexthop_owner: Optional[str], plain_cost: float
) -> float:
    """IGP cost as seen by the BGP decision process, SR VSB applied.

    On a vendor whose SR implementation reports tunnel cost 0, a usable SR
    policy towards the next hop's owner masks the real IGP distance.
    """
    if nexthop_owner is None:
        return plain_cost
    policy = device.sr_policy_towards(nexthop_owner)
    if policy is None:
        return plain_cost
    if device.vendor.sr_tunnel_zeroes_igp_cost:
        return 0.0
    return plain_cost


def first_tunnel_target(src: str, policy: SrPolicyConfig) -> Optional[str]:
    """The first waypoint of the tunnel from ``src`` other than ``src``."""
    waypoints = list(policy.segments) + [policy.endpoint]
    return next((w for w in waypoints if w != src), None)
