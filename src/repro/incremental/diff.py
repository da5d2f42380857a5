"""Model differ: structured deltas between a base and an updated model.

Change verification starts from the daily pre-processed base
:class:`~repro.net.model.NetworkModel`; a change plan produces an updated
copy via ``ChangePlan.build_updated_model``. This module computes what
actually changed between the two — per-device configuration deltas broken
down by section (peers, statics, policies, ...), topology differences, and
the plan's new input routes — so the blast-radius analyzer
(:mod:`repro.incremental.blast`) can decide how much of the base simulation
survives.

Sections are compared by value (``==`` on the dataclasses the model holds),
so two configurations that differ only in the iteration order of a set are
equal. Sections whose readers follow entry order compare in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.net.addr import IPAddress
from repro.net.device import DeviceConfig
from repro.net.model import NetworkModel
from repro.net.topology import Topology
from repro.routing.inputs import InputRoute

#: Per-device configuration sections, each as the values it compares.
#: Name-keyed sections compare as dicts, so two configs that define the same
#: objects in different order are equal; the other keyed sections compare
#: their entries in order, which their readers follow.
_SECTION_VALUES: Dict[str, Callable[[DeviceConfig], object]] = {
    # vendor profile (VSB behaviour), ASN, multipath, and drain state affect
    # everything a device does — never prefix-analyzable.
    "identity": lambda d: (
        d.vendor_name, d.asn, d.max_paths, d.isolated, d.policy_ctx.vendor
    ),
    "peers": lambda d: d.peers,
    "vrfs": lambda d: d.vrfs,
    "statics": lambda d: list(d.statics.items()),
    "aggregates": lambda d: list(d.aggregates.items()),
    "sr": lambda d: list(d.sr_policies.items()),
    "pbr": lambda d: list(d.pbr_rules.items()),
    "acls": lambda d: (d.acls, d.interface_acls),
    "isis": lambda d: d.isis,
    "redistributions": lambda d: list(d.redistributions.items()),
    "policies": lambda d: (
        d.policy_ctx.prefix_lists,
        d.policy_ctx.community_lists,
        d.policy_ctx.aspath_lists,
        d.policy_ctx.policies,
        d.policy_ctx.aspath_fullmatch,
    ),
}

SECTIONS: Tuple[str, ...] = tuple(_SECTION_VALUES)

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


def changed_sections(base: DeviceConfig, updated: DeviceConfig) -> FrozenSet[str]:
    """The sections whose values differ between two configs of one device."""
    return frozenset(
        section
        for section, values in _SECTION_VALUES.items()
        if values(base) != values(updated)
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
    topology_changed = base.topology != updated.topology
    deltas: Dict[str, DeviceDelta] = {}
    for name in base_names & updated_names:
        base_cfg = base.devices[name]
        updated_cfg = updated.devices[name]
        if base_cfg is updated_cfg:
            continue
        changed = changed_sections(base_cfg, updated_cfg)
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
