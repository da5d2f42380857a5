"""Vendor configuration dialects, parsing, and incremental change application.

One parser (:mod:`repro.net.config.base`) writes each command's meaning
once; the two synthetic dialects (:mod:`repro.net.config.dialects`) are
data over it, loosely modelled on common CLI families:

* ``vendor-a`` — ``router bgp`` / ``route-map`` / ``ip prefix-list`` style.
* ``vendor-b`` — ``bgp`` / ``route-policy`` / ``ip ip-prefix`` style, with
  the separate ``ip ipv6-prefix`` command whose confusion with ``ip-prefix``
  caused the §6.1 "Changing ISP exits" incident.

``parse_config`` builds a fresh :class:`~repro.net.device.DeviceConfig`;
``apply_commands`` applies change-plan command deltas (including ``no`` /
``undo`` deletions) to an existing one. A line the dialect cannot interpret
raises :class:`ConfigParseError`.
"""

from repro.net.config.base import ConfigParseError
from repro.net.config.dialects import parser_for
from repro.net.config.apply import apply_commands, parse_config

__all__ = [
    "ConfigParseError",
    "apply_commands",
    "parse_config",
    "parser_for",
]
