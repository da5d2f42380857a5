"""Traffic monitoring system simulator (§2.1).

NetFlow/sFlow provide per-flow records at the ingress interface; SNMP
provides per-link aggregate volumes. Both derive from a ground-truth
traffic simulation. Fault hooks reproduce the Table-4 "inaccurate traffic
monitoring data" class — e.g. a vendor's NetFlow bug misreporting flow
volumes on certain routers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set

from repro.traffic.flow import Flow
from repro.traffic.load import LinkLoadMap
from repro.traffic.simulator import TrafficSimulationResult


@dataclass(frozen=True)
class FlowRecord:
    """A NetFlow/sFlow record: the 5-tuple plus measured volume."""

    ingress: str
    src: str
    dst: str
    protocol: int
    src_port: int
    dst_port: int
    volume: float


class TrafficMonitor:
    """Derives NetFlow records and SNMP link loads from ground truth."""

    def __init__(
        self,
        volume_error_devices: Optional[Set[str]] = None,
        volume_error_factor: float = 1.0,
        snmp_noise: float = 0.0,
    ) -> None:
        #: routers whose NetFlow implementation misreports volumes
        self.volume_error_devices = volume_error_devices or set()
        self.volume_error_factor = volume_error_factor
        #: multiplicative noise bound on SNMP readings (0.02 = +/-2%)
        self.snmp_noise = snmp_noise

    # -- NetFlow -------------------------------------------------------------

    def collect_flows(self, flows: Iterable[Flow]) -> List[FlowRecord]:
        records: List[FlowRecord] = []
        for flow in flows:
            volume = flow.volume
            if flow.ingress in self.volume_error_devices:
                volume *= self.volume_error_factor
            records.append(
                FlowRecord(
                    ingress=flow.ingress,
                    src=str(flow.src),
                    dst=str(flow.dst),
                    protocol=flow.protocol,
                    src_port=flow.src_port,
                    dst_port=flow.dst_port,
                    volume=volume,
                )
            )
        return records

    def as_input_flows(self, records: Iterable[FlowRecord]) -> List[Flow]:
        """Rebuild simulation input flows from monitored records (§2.2)."""
        from repro.traffic.flow import make_flow

        return [
            make_flow(
                r.ingress,
                r.src,
                r.dst,
                protocol=r.protocol,
                src_port=r.src_port,
                dst_port=r.dst_port,
                volume=r.volume,
            )
            for r in records
        ]

    # -- SNMP ----------------------------------------------------------------

    def collect_link_loads(
        self, ground_truth: TrafficSimulationResult
    ) -> LinkLoadMap:
        """SNMP per-link volumes (deterministic noise keyed by link name)."""
        observed = LinkLoadMap()
        for (a, b), volume in ground_truth.loads.loads.items():
            if self.snmp_noise:
                import zlib

                jitter = (
                    (zlib.crc32(f"{a}|{b}".encode()) % 1000) / 1000.0 * 2 - 1
                ) * self.snmp_noise
                volume *= 1.0 + jitter
            observed.add(a, b, volume)
        return observed
