"""Change plans: the 12 change types of Table 2 plus the plan model.

A change plan carries planned topology operations, per-device configuration
command deltas (a few hundred to a few thousand lines in production, §2.2),
optional new input routes (the "new prefix announcement" scenario), and the
operator's formally specified intents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.addr import IPAddress
from repro.net.device import DeviceConfig
from repro.net.model import NetworkModel
from repro.net.topology import Router, TopologyError
from repro.routing.inputs import InputRoute

#: Table 2, verbatim: category -> change types. Types marked ``route_intent``
#: need control-plane route change intent specification (the * rows);
#: ``expressive`` marks types whose intents go beyond reachability (bold).
CHANGE_TYPES: Dict[str, Dict[str, Dict[str, bool]]] = {
    "os-maintenance": {
        "os-upgrade": {"expressive": True, "route_intent": True},
        "os-patch": {"expressive": True, "route_intent": True},
    },
    "configuration-maintenance": {
        "route-attributes-modification": {"expressive": True, "route_intent": True},
        "static-route-modification": {"expressive": False, "route_intent": False},
        "pbr-modification": {"expressive": True, "route_intent": False},
        "acl-modification": {"expressive": True, "route_intent": False},
    },
    "network-deployment": {
        "adding-new-links": {"expressive": True, "route_intent": True},
        "adding-new-routers": {"expressive": True, "route_intent": True},
        "topology-adjustment": {"expressive": True, "route_intent": False},
    },
    "business-demand": {
        "new-prefix-announcement": {"expressive": False, "route_intent": False},
        "prefix-reclamation": {"expressive": False, "route_intent": False},
        "traffic-steering": {"expressive": True, "route_intent": True},
    },
}

ALL_CHANGE_TYPES = [
    change_type
    for types in CHANGE_TYPES.values()
    for change_type in types
]


def change_type_info(change_type: str) -> Dict[str, bool]:
    for types in CHANGE_TYPES.values():
        if change_type in types:
            return types[change_type]
    raise KeyError(f"unknown change type {change_type!r}; see Table 2")


@dataclass(frozen=True)
class TopologyOp:
    """One planned topology operation."""

    kind: str  # add-router | remove-router | add-link | remove-link | fail-link
    args: tuple

    def apply(self, model: NetworkModel) -> None:
        if self.kind == "add-router":
            name, vendor, asn, region, loopback = self.args
            if model.topology.has_router(name) or name in model.devices:
                raise TopologyError(
                    f"add-router op: router {name!r} already exists in the model"
                )
            address = IPAddress.parse(loopback)
            owner = model.owner_of_loopback(address)
            if owner is not None:
                raise TopologyError(
                    f"add-router op: loopback {loopback} of new router "
                    f"{name!r} is already assigned to {owner!r}"
                )
            model.topology.add_router(
                Router(name=name, vendor=vendor, asn=asn, region=region)
            )
            model.add_device(
                DeviceConfig(name, vendor=vendor, asn=asn), loopback=address
            )
        elif self.kind == "remove-router":
            (name,) = self.args
            model.remove_device(name)
        elif self.kind == "add-link":
            a, b, cost, group = self.args
            model.topology.connect(a, b, igp_cost=cost, group=group)
        elif self.kind == "remove-link":
            a, b = self.args
            link = model.topology.find_link(a, b)
            if link is None:
                raise TopologyError(f"change plan removes missing link {a}-{b}")
            model.topology.remove_link(link)
        elif self.kind == "fail-link":
            a, b = self.args
            link = model.topology.find_link(a, b)
            if link is None:
                raise TopologyError(f"change plan fails missing link {a}-{b}")
            model.topology.fail_link(link)
        else:
            raise ValueError(f"unknown topology op {self.kind!r}")


def add_router(
    name: str, vendor: str = "vendor-a", asn: int = 64500,
    region: str = "default", loopback: str = "10.255.200.1",
) -> TopologyOp:
    return TopologyOp("add-router", (name, vendor, asn, region, loopback))


def remove_router(name: str) -> TopologyOp:
    return TopologyOp("remove-router", (name,))


def add_link(a: str, b: str, cost: int = 10, group: Optional[str] = None) -> TopologyOp:
    return TopologyOp("add-link", (a, b, cost, group))


def remove_link(a: str, b: str) -> TopologyOp:
    return TopologyOp("remove-link", (a, b))


def fail_link(a: str, b: str) -> TopologyOp:
    return TopologyOp("fail-link", (a, b))


@dataclass
class ChangePlan:
    """A planned network change to be verified before execution."""

    name: str
    change_type: str
    device_commands: Dict[str, List[str]] = field(default_factory=dict)
    topology_ops: List[TopologyOp] = field(default_factory=list)
    new_input_routes: List[InputRoute] = field(default_factory=list)
    intents: List = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        change_type_info(self.change_type)  # validates against Table 2

    def command_count(self) -> int:
        return sum(len(cmds) for cmds in self.device_commands.values())

    def build_updated_model(self, base: NetworkModel) -> NetworkModel:
        """Apply the plan to a copy of base sharing every config it does not edit."""
        from repro.net.config import apply_commands

        updated = base.copy()
        for op in self.topology_ops:
            op.apply(updated)
        for device_name, commands in self.device_commands.items():
            if device_name not in updated.devices:
                raise KeyError(
                    f"change plan {self.name!r} targets unknown device "
                    f"{device_name!r}"
                )
            updated.devices[device_name] = apply_commands(
                updated.devices[device_name], commands
            )
        return updated
