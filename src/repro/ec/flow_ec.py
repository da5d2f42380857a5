"""Flow equivalence classes (§3.1).

Two flows are in one EC when their longest-prefix matches on all RIBs are
the same — then they share forwarding paths and only one needs simulating.
The partition is computed from the *union* prefix universe: two destination
addresses with identical covering-prefix sets in the union table have
identical LPM results on every device RIB (each device's table is a subset
of the universe). PBR rules and ACLs also discriminate flows, so their match
signatures are folded into the EC key as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from typing import TYPE_CHECKING

from repro.net.model import NetworkModel
from repro.net.trie import PrefixTrie
from repro.routing.rib import DeviceRib

if TYPE_CHECKING:  # avoid a circular import with repro.traffic
    from repro.traffic.flow import Flow


@dataclass
class FlowEc:
    """One flow EC: a representative plus members and the pooled volume."""

    representative: Flow
    members: List[Flow] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def total_volume(self) -> float:
        return sum(f.volume for f in self.members)


@dataclass
class FlowEcIndex:
    classes: List[FlowEc]
    total_flows: int
    #: lazily built member -> representative map (see representative_of)
    _rep_of: Optional[Dict["Flow", "Flow"]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def representatives(self) -> List[Flow]:
        return [ec.representative for ec in self.classes]

    def representative_of(self, flow: "Flow") -> Optional["Flow"]:
        """The representative of the EC containing ``flow`` (O(1) amortized).

        The member map is built once on first use instead of scanning
        every class's member list per query.
        """
        if self._rep_of is None:
            rep_of: Dict["Flow", "Flow"] = {}
            for ec in self.classes:
                for member in ec.members:
                    rep_of[member] = ec.representative
            self._rep_of = rep_of
        return self._rep_of.get(flow)

    @property
    def reduction_factor(self) -> float:
        """flows per simulated flow (the paper reports ~two orders)."""
        if not self.classes:
            return 1.0
        return self.total_flows / len(self.classes)


def build_prefix_universe(ribs: Iterable[DeviceRib]) -> PrefixTrie:
    """Union table of every best/ECMP prefix across all device RIBs.

    Reads each RIB's FIB index, so the indexes forwarding then looks up
    in are built here.
    """
    universe = PrefixTrie()
    seen = set()
    for rib in ribs:
        for vrf in rib.vrfs:
            for prefix in rib.fib_prefixes(vrf):
                if prefix not in seen:
                    seen.add(prefix)
                    universe.insert(prefix, True)
    return universe


def _policy_signature(policy_devices, flow: Flow) -> Tuple:
    """Which PBR rules / ACL rules anywhere in the network match this flow.

    ``policy_devices`` is the precomputed list of devices that have at
    least one PBR rule or ACL; devices without either contribute zero
    bits, so skipping them leaves the signature unchanged.
    """
    bits: List[bool] = []
    for device in policy_devices:
        for rule in device.pbr_rules.values():
            bits.append(rule.matches_flow(flow))
        for acl in device.acls.values():
            bits.append(acl.permits(flow))
    return tuple(bits)


def compute_flow_ecs(
    flows: Iterable[Flow],
    universe: PrefixTrie,
    model: Optional[NetworkModel] = None,
) -> FlowEcIndex:
    """Partition flows into ECs.

    The key is (ingress, vrf, covering-prefix signature of dst, policy
    signature). Ingress matters because paths start there; sources only
    matter through PBR/ACL (captured by the policy signature).
    """
    classes: Dict[Tuple, FlowEc] = {}
    total = 0
    dst_cache: Dict[Tuple, Tuple] = {}
    # Only devices with PBR rules or ACLs can discriminate flows; the
    # signature is cached per (src, dst, protocol, dst_port) — the only
    # flow fields PBR/ACL matchers consult.
    policy_devices = (
        [d for d in model.devices.values() if d.pbr_rules or d.acls]
        if model is not None
        else []
    )
    policy_sigs: Dict[Tuple, Tuple] = {}
    for flow in flows:
        total += 1
        dst_key = (flow.dst, flow.vrf)
        signature = dst_cache.get(dst_key)
        if signature is None:
            signature = tuple(
                (p.value, p.length) for p, _ in universe.all_matches(flow.dst)
            )
            dst_cache[dst_key] = signature
        if policy_devices:
            policy_key = (flow.src, flow.dst, flow.protocol, flow.dst_port)
            policy_sig = policy_sigs.get(policy_key)
            if policy_sig is None:
                policy_sig = _policy_signature(policy_devices, flow)
                policy_sigs[policy_key] = policy_sig
        else:
            policy_sig = ()
        key = (
            flow.ingress,
            flow.vrf,
            flow.dst.family,
            signature,
            policy_sig,
        )
        ec = classes.get(key)
        if ec is None:
            classes[key] = FlowEc(representative=flow, members=[flow])
        else:
            ec.members.append(flow)
    return FlowEcIndex(classes=list(classes.values()), total_flows=total)
