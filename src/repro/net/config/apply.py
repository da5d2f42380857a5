"""Parsing entry points and incremental change application.

``parse_config`` is what the pre-processing network-model building service
runs per router each day; ``apply_commands`` is the change-verification-time
path that applies a change plan's command delta (typically a few hundred to a
few thousand lines, §2.2) to one device of a *copy* of the base model.
"""

from __future__ import annotations

from typing import Sequence

from repro.net.config.dialects import VENDOR_A, parser_for
from repro.net.device import DeviceConfig


def parse_config(
    text: str,
    device_name: str,
    vendor: str = VENDOR_A.name,
    asn: int = 64512,
) -> DeviceConfig:
    """Parse a full device configuration in the given vendor dialect."""
    return parser_for(vendor).parse(text, device_name, asn=asn)


def apply_commands(config: DeviceConfig, commands: Sequence[str]) -> DeviceConfig:
    """Apply change-plan commands to a copy of a device config.

    The original is never mutated — change verification always works on the
    updated model while the base model stays available for PRE/POST intents.
    Commands are interpreted in the device's own vendor dialect, so a change
    plan written for the wrong vendor fails to parse (one of the §6.1
    "incorrect commands" risk patterns) and surfaces as an error instead of
    silently applying.
    """
    updated = config.copy()
    parser_for(config.vendor_name).apply(updated, list(commands))
    return updated
