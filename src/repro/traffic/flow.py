"""Flow model: the 5-tuple records collected by the traffic monitoring system.

A :class:`Flow` is what NetFlow/sFlow reports per interface (§2.1): source
and destination IP/port, protocol, and the traffic volume between reports.
``ingress`` is the router where the flow enters the simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addr import IPAddress, as_address

PROTO_TCP = 6
PROTO_UDP = 17


@dataclass(frozen=True)
class Flow:
    """An input flow injected at ``ingress``; ``volume`` in bits/second."""

    ingress: str
    src: IPAddress
    dst: IPAddress
    protocol: int = PROTO_TCP
    src_port: int = 0
    dst_port: int = 0
    volume: float = 1.0
    vrf: str = "global"

    def __str__(self) -> str:
        return (
            f"{self.src}:{self.src_port}->{self.dst}:{self.dst_port}"
            f"/{self.protocol} @{self.ingress} vol={self.volume:g}"
        )


def make_flow(
    ingress: str,
    src: str,
    dst: str,
    protocol: int = PROTO_TCP,
    src_port: int = 0,
    dst_port: int = 0,
    volume: float = 1.0,
    vrf: str = "global",
) -> Flow:
    """Convenience constructor from address strings."""
    return Flow(
        ingress=ingress,
        src=as_address(src),
        dst=as_address(dst),
        protocol=protocol,
        src_port=src_port,
        dst_port=dst_port,
        volume=volume,
        vrf=vrf,
    )
