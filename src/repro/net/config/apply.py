"""Parsing entry points and incremental change application.

``parse_config`` is what the pre-processing network-model building service
runs per router each day; ``apply_commands`` is the change-verification-time
path that applies a change plan's command delta (typically a few hundred to a
few thousand lines, §2.2) to one device of a *copy* of the base model.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.net.config.base import parser_for
from repro.net.device import DeviceConfig

# Register the shipped dialects on import.
from repro.net.config import vendor_a as _vendor_a  # noqa: F401
from repro.net.config import vendor_b as _vendor_b  # noqa: F401


def parse_config(
    text: str,
    device_name: str,
    vendor: str = "vendor-a",
    asn: int = 64512,
    strict: bool = True,
    flawed_commands: Optional[Set[str]] = None,
) -> DeviceConfig:
    """Parse a full device configuration in the given vendor dialect.

    ``flawed_commands`` names handler classes the parser silently drops,
    reproducing the "incorrect configuration parsing" issue class of Table 4.
    """
    parser = parser_for(vendor, strict=strict, flawed_commands=flawed_commands)
    return parser.parse(text, device_name, asn=asn)


def apply_commands(
    config: DeviceConfig,
    commands: Sequence[str],
    strict: bool = True,
) -> DeviceConfig:
    """Apply change-plan commands to a copy of a device config.

    The original is never mutated — change verification always works on the
    updated model while the base model stays available for PRE/POST intents.
    Commands are interpreted in the device's own vendor dialect, so a change
    plan written for the wrong vendor fails to parse (one of the §6.1
    "incorrect commands" risk patterns) and surfaces as an error instead of
    silently applying.
    """
    updated = config.copy()
    parser = parser_for(config.vendor_name, strict=strict)
    parser.apply(updated, list(commands))
    return updated
