"""Model differ: structured deltas between a base and an updated model.

Change verification starts from the daily pre-processed base
:class:`~repro.net.model.NetworkModel`; a change plan produces an updated
copy via ``ChangePlan.build_updated_model``. This module computes what
actually changed between the two — per-device configuration deltas broken
down by section (peers, statics, policies, ...), topology differences, and
the plan's new input routes — so the blast-radius analyzer
(:mod:`repro.incremental.blast`) can decide how much of the base simulation
survives.

Sections are compared by canonical text fingerprints (stable ``repr`` of the
section's dataclasses). Two configurations that render differently are
treated as changed even if semantically equal — the conservative direction:
a false "changed" only costs re-simulation, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.net.addr import IPAddress
from repro.net.device import DeviceConfig
from repro.net.model import NetworkModel
from repro.net.topology import Topology
from repro.routing.inputs import InputRoute

#: Per-device configuration sections, each with a canonical fingerprint.
#: Name-keyed sections are rendered with sorted keys so two configs that
#: define the same objects in different order still compare equal; the other
#: keyed sections keep their entry order, which their readers follow.
_SECTION_FINGERPRINTS: Dict[str, Callable[[DeviceConfig], str]] = {
    # vendor profile (VSB behaviour), ASN, multipath, and drain state affect
    # everything a device does — never prefix-analyzable.
    "identity": lambda d: repr(
        (d.vendor_name, d.asn, d.max_paths, d.isolated, d.policy_ctx.vendor)
    ),
    "peers": lambda d: repr(d.peers),
    "vrfs": lambda d: repr(sorted(d.vrfs.items())),
    "statics": lambda d: repr(d.statics),
    "aggregates": lambda d: repr(d.aggregates),
    "sr": lambda d: repr(d.sr_policies),
    "pbr": lambda d: repr(d.pbr_rules),
    "acls": lambda d: repr(
        (sorted(d.acls.items()), sorted(d.interface_acls.items()))
    ),
    "isis": lambda d: repr((d.isis, sorted(d.isis.cost_overrides.items()))),
    "redistributions": lambda d: repr(d.redistributions),
    "policies": lambda d: repr(
        (
            sorted(d.policy_ctx.prefix_lists.items(), key=lambda kv: kv[0]),
            sorted(d.policy_ctx.community_lists.items(), key=lambda kv: kv[0]),
            sorted(d.policy_ctx.aspath_lists.items(), key=lambda kv: kv[0]),
            sorted(d.policy_ctx.policies.items(), key=lambda kv: kv[0]),
            d.policy_ctx.aspath_fullmatch,
        )
    ),
}

SECTIONS: Tuple[str, ...] = tuple(_SECTION_FINGERPRINTS)

#: Sections whose change can move IGP state (compute_igp inputs).
IGP_SECTIONS: FrozenSet[str] = frozenset({"isis", "identity"})

#: Sections whose change can move a device's locally originated input routes
#: (build_local_input_routes inputs).
LOCAL_INPUT_SECTIONS: FrozenSet[str] = frozenset(
    {"statics", "redistributions", "policies", "identity"}
)

#: Sections a forwarding decision reads besides the RIB and the IGP
#: (identity and VRFs conservatively, since both reshape everything a
#: device does). IS-IS settings reach forwarding only through the IGP.
FORWARDING_SECTIONS: FrozenSet[str] = frozenset(
    {"identity", "sr", "pbr", "acls", "vrfs"}
)


def device_section_fingerprints(config: DeviceConfig) -> Dict[str, str]:
    """Canonical per-section fingerprints of one device configuration."""
    return {name: fp(config) for name, fp in _SECTION_FINGERPRINTS.items()}


def topology_fingerprint(topology: Topology) -> str:
    """Canonical fingerprint of the topology (links, routers, failures)."""
    return repr(
        (
            sorted(repr(link) for link in topology.links),
            sorted(repr(router) for router in topology.routers),
            sorted(repr(key) for key in topology._failed_links),
            sorted(topology._failed_routers),
        )
    )


@dataclass(frozen=True)
class DeviceDelta:
    """Configuration delta of one device, broken down by section."""

    device: str
    sections: FrozenSet[str]

    def touches(self, *names: str) -> bool:
        return any(name in self.sections for name in names)

    def __str__(self) -> str:
        return f"{self.device}: {', '.join(sorted(self.sections))}"


@dataclass
class ModelDiff:
    """Structured delta between a base and an updated network model."""

    device_deltas: Dict[str, DeviceDelta] = field(default_factory=dict)
    devices_added: FrozenSet[str] = frozenset()
    devices_removed: FrozenSet[str] = frozenset()
    topology_changed: bool = False
    loopbacks_changed: bool = False
    #: some link interface address moved (only set with ``topology_changed``)
    interface_addresses_changed: bool = False
    new_input_routes: Tuple[InputRoute, ...] = ()

    @property
    def is_empty(self) -> bool:
        """True when the updated model is behaviourally identical to base."""
        return not (
            self.device_deltas
            or self.devices_added
            or self.devices_removed
            or self.topology_changed
            or self.loopbacks_changed
            or self.new_input_routes
        )

    @property
    def changed_devices(self) -> Set[str]:
        return set(self.device_deltas)

    @property
    def structure_changed(self) -> bool:
        """Topology, device set, or address plan moved."""
        return bool(
            self.topology_changed
            or self.devices_added
            or self.devices_removed
            or self.loopbacks_changed
        )

    @property
    def igp_affecting(self) -> bool:
        """Whether ``compute_igp`` could produce a different result."""
        if self.structure_changed:
            return True
        return any(
            delta.sections & IGP_SECTIONS for delta in self.device_deltas.values()
        )

    @property
    def forwarding_affecting(self) -> Optional[str]:
        """Why a forwarding decision could move other than via the RIBs and
        the IGP/link answers it reads, or None.

        The reason is ``devices_changed``, ``addresses_moved`` (loopbacks
        or interface addresses) or ``<section>_changed`` for the first
        moved section of ``FORWARDING_SECTIONS``.
        """
        if self.devices_added or self.devices_removed:
            return "devices_changed"
        if self.loopbacks_changed or self.interface_addresses_changed:
            return "addresses_moved"
        moved = {
            section
            for delta in self.device_deltas.values()
            for section in delta.sections & FORWARDING_SECTIONS
        }
        return f"{min(moved)}_changed" if moved else None

    def local_inputs_affected(self) -> Set[str]:
        """Devices whose locally originated input routes may have moved.

        Only meaningful when ``structure_changed`` is False (direct routes
        depend on link interfaces and loopbacks).
        """
        return {
            name
            for name, delta in self.device_deltas.items()
            if delta.sections & LOCAL_INPUT_SECTIONS
        }

    def summary(self) -> str:
        parts: List[str] = []
        if self.topology_changed:
            parts.append("topology changed")
        if self.devices_added:
            parts.append(f"+{len(self.devices_added)} devices")
        if self.devices_removed:
            parts.append(f"-{len(self.devices_removed)} devices")
        if self.loopbacks_changed:
            parts.append("loopbacks changed")
        for delta in sorted(self.device_deltas.values(), key=lambda d: d.device):
            parts.append(str(delta))
        if self.new_input_routes:
            parts.append(f"{len(self.new_input_routes)} new input routes")
        return "; ".join(parts) if parts else "no changes"


def _interface_addresses(topology: Topology) -> List[Tuple[IPAddress, str]]:
    """Every link interface address with its router, in link order."""
    return [
        (iface.address, iface.router)
        for link in topology.links
        for iface in (link.a, link.b)
        if iface.address is not None
    ]


def diff_models(
    base: NetworkModel,
    updated: NetworkModel,
    new_input_routes: Optional[Tuple[InputRoute, ...]] = None,
) -> ModelDiff:
    """Compute the structured delta between two network models.

    ``new_input_routes`` carries the plan's injected routes (the
    "new prefix announcement" scenario) — they are part of the change even
    though they do not appear in either model.
    """
    base_names = set(base.devices)
    updated_names = set(updated.devices)
    topology_changed = not updated.topology.is_untouched_copy_of(base.topology) and (
        topology_fingerprint(base.topology) != topology_fingerprint(updated.topology)
    )
    deltas: Dict[str, DeviceDelta] = {}
    for name in base_names & updated_names:
        base_cfg = base.devices[name]
        updated_cfg = updated.devices[name]
        if base_cfg is updated_cfg:
            continue
        changed = frozenset(
            section
            for section, fp in _SECTION_FINGERPRINTS.items()
            if fp(base_cfg) != fp(updated_cfg)
        )
        if changed:
            deltas[name] = DeviceDelta(device=name, sections=changed)

    return ModelDiff(
        device_deltas=deltas,
        devices_added=frozenset(updated_names - base_names),
        devices_removed=frozenset(base_names - updated_names),
        topology_changed=topology_changed,
        loopbacks_changed=base.loopbacks != updated.loopbacks,
        interface_addresses_changed=topology_changed
        and _interface_addresses(base.topology)
        != _interface_addresses(updated.topology),
        new_input_routes=tuple(new_input_routes or ()),
    )
