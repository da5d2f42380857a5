"""The network model: topology + per-device configurations.

This is the artifact the pre-processing phase produces ("base network model",
§2.2) and that change verification copies and mutates incrementally. It also
carries the address plan: loopback addresses per router and the address of
each link interface, which BGP next-hop resolution and static routes need.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.net.addr import IPAddress
from repro.net.device import DeviceConfig
from repro.net.topology import Topology, TopologyError


class NetworkModel:
    """Topology plus device configs plus the loopback address plan."""

    def __init__(self, topology: Optional[Topology] = None) -> None:
        self.topology = topology if topology is not None else Topology()
        self.devices: Dict[str, DeviceConfig] = {}
        self.loopbacks: Dict[str, IPAddress] = {}
        self._loopback_owner: Dict[IPAddress, str] = {}
        #: devices whose config another model may alias (see :meth:`edit`)
        self._shared: Set[str] = set()

    # -- construction --------------------------------------------------------

    def add_device(
        self, config: DeviceConfig, loopback: Optional[IPAddress] = None
    ) -> DeviceConfig:
        if config.name in self.devices:
            raise TopologyError(f"duplicate device config for {config.name!r}")
        if not self.topology.has_router(config.name):
            raise TopologyError(
                f"device {config.name!r} has no router in the topology"
            )
        self.devices[config.name] = config
        self._shared.discard(config.name)
        if loopback is not None:
            self.set_loopback(config.name, loopback)
        return config

    def set_loopback(self, router: str, address: IPAddress) -> None:
        previous = self.loopbacks.get(router)
        if previous is not None:
            del self._loopback_owner[previous]
        self.loopbacks[router] = address
        self._loopback_owner[address] = router

    def remove_device(self, name: str) -> None:
        self.devices.pop(name, None)
        loopback = self.loopbacks.pop(name, None)
        if loopback is not None:
            self._loopback_owner.pop(loopback, None)
        if self.topology.has_router(name):
            self.topology.remove_router(name)

    # -- lookups --------------------------------------------------------------

    def device(self, name: str) -> DeviceConfig:
        try:
            return self.devices[name]
        except KeyError:
            raise TopologyError(f"no device config for {name!r}") from None

    def edit(self, name: str) -> DeviceConfig:
        """The config of ``name`` to write; one shared since :meth:`copy` is copied."""
        config = self.device(name)
        if name in self._shared:
            config = self.devices[name] = config.copy()
            self._shared.discard(name)
        return config

    def loopback_of(self, router: str) -> Optional[IPAddress]:
        return self.loopbacks.get(router)

    def owner_of_loopback(self, address: IPAddress) -> Optional[str]:
        """The router whose loopback is ``address``, if any."""
        return self._loopback_owner.get(address)

    def owner_of_address(self, address: IPAddress) -> Optional[str]:
        """The router owning an address (loopback or interface address)."""
        owner = self._loopback_owner.get(address)
        if owner is not None:
            return owner
        return self.topology.owner_of_interface_address(address)

    @property
    def device_names(self) -> List[str]:
        return list(self.devices)

    def devices_in_group(self, group: str) -> List[str]:
        return [
            r.name for r in self.topology.routers if r.group == group
        ]

    def devices_in_region(self, region: str) -> List[str]:
        return [r.name for r in self.topology.routers if r.region == region]

    # -- copying ----------------------------------------------------------------

    def copy(self) -> "NetworkModel":
        """Copy for change application; device configs stay shared (:meth:`edit`)."""
        clone = NetworkModel(self.topology.copy())
        clone.devices = dict(self.devices)
        self._shared = set(self.devices)
        clone._shared = set(self.devices)
        clone.loopbacks = dict(self.loopbacks)
        clone._loopback_owner = dict(self._loopback_owner)
        return clone

    def stats(self) -> Dict[str, int]:
        topo = self.topology.stats()
        topo["devices"] = len(self.devices)
        topo["bgp_sessions"] = sum(len(d.peers) for d in self.devices.values())
        return topo
