"""Shared machinery for the vendor configuration dialects.

Each dialect parser is a stateful line interpreter, like a router CLI:
context-opening commands (``router bgp``, ``route-map X permit 10``) set the
current context, indented or subsequent sub-commands apply within it, and any
new top-level command replaces the context.

Parsers support *flaw injection* for the accuracy experiments (§5.3,
"Incorrect configuration parsing"): a flawed parser silently ignores a
configured set of command classes, producing an incomplete device model
exactly the way a buggy production parser would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.net.device import DeviceConfig


class ConfigParseError(Exception):
    """Raised on malformed configuration in strict mode."""

    def __init__(self, message: str, line_no: int = 0, line: str = "") -> None:
        super().__init__(
            f"line {line_no}: {message}" + (f" [{line.strip()}]" if line else "")
        )
        self.line_no = line_no
        self.line = line


@dataclass
class ParseDiagnostics:
    """Collected warnings/ignored lines for non-strict parsing."""

    ignored: List[Tuple[int, str]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


class DialectParser:
    """Base class for dialect parsers.

    Subclasses populate ``self.handlers``: a list of ``(match_tokens,
    handler)`` pairs tried in order, where ``match_tokens`` is a tuple of
    leading keywords. A handler receives the remaining tokens and the
    negation flag.
    """

    #: dialect name, e.g. "vendor-a"
    dialect = "base"
    #: the keyword that negates a command in this dialect ("no"/"undo")
    negation_keyword = "no"

    def __init__(self, strict: bool = True, flawed_commands: Optional[Set[str]] = None):
        self.strict = strict
        #: handler names the flawed parser silently drops (fault injection)
        self.flawed_commands = flawed_commands or set()
        self.diagnostics = ParseDiagnostics()
        self._config: Optional[DeviceConfig] = None
        self._context: Optional[Tuple[str, object]] = None
        self._line_no = 0

    # -- to implement in subclasses -----------------------------------------

    def handlers(self) -> Sequence[Tuple[Tuple[str, ...], str]]:
        """Return ``(leading_tokens, handler_method_name)`` in match order."""
        raise NotImplementedError

    # -- driving ---------------------------------------------------------------

    def parse(self, text: str, device_name: str, asn: int = 64512) -> DeviceConfig:
        """Parse a full configuration into a fresh device model."""
        config = DeviceConfig(device_name, vendor=self.dialect, asn=asn)
        self.apply(config, text.splitlines())
        return config

    def apply(self, config: DeviceConfig, lines: Sequence[str]) -> None:
        """Interpret command lines against an existing device model."""
        self._config = config
        for raw in lines:
            self._line_no += 1
            line = raw.rstrip()
            stripped = line.strip()
            if not stripped or stripped.startswith(("!", "#")):
                continue
            self._dispatch(line)
        self._context = None
        self._config = None

    @property
    def config(self) -> DeviceConfig:
        assert self._config is not None, "parser used outside parse()/apply()"
        return self._config

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(self, line: str) -> None:
        tokens = line.split()
        negated = False
        if tokens and tokens[0] == self.negation_keyword:
            negated = True
            tokens = tokens[1:]
        at_top_level = not line.startswith(" ")

        for leading, handler_name in self.handlers():
            n = len(leading)
            if tuple(t.lower() for t in tokens[:n]) == leading:
                if handler_name in self.flawed_commands:
                    self.diagnostics.ignored.append((self._line_no, line))
                    return
                if at_top_level and not handler_name.startswith("sub_"):
                    self._context = None
                handler = getattr(self, handler_name)
                try:
                    handler(tokens[n:], negated)
                except ConfigParseError:
                    raise
                except (ValueError, KeyError, IndexError) as exc:
                    self._error(f"{type(exc).__name__}: {exc}", line)
                return

        self._error("unrecognized command", line)

    def _error(self, message: str, line: str) -> None:
        if self.strict:
            raise ConfigParseError(message, self._line_no, line)
        self.diagnostics.ignored.append((self._line_no, line))

    # -- context helpers -----------------------------------------------------------

    def _set_context(self, kind: str, value: object) -> None:
        self._context = (kind, value)

    def _require_context(self, kind: str, line_hint: str) -> object:
        if self._context is None or self._context[0] != kind:
            self._error(f"command requires {kind} context", line_hint)
            raise ConfigParseError(f"missing {kind} context", self._line_no, line_hint)
        return self._context[1]


_PARSERS: Dict[str, Callable[..., DialectParser]] = {}


def register_dialect(name: str, factory: Callable[..., DialectParser]) -> None:
    _PARSERS[name] = factory


def parser_for(
    vendor: str, strict: bool = True, flawed_commands: Optional[Set[str]] = None
) -> DialectParser:
    """Instantiate the parser for a vendor dialect."""
    try:
        factory = _PARSERS[vendor]
    except KeyError:
        raise KeyError(
            f"no config dialect registered for vendor {vendor!r}; "
            f"registered: {sorted(_PARSERS)}"
        ) from None
    return factory(strict=strict, flawed_commands=flawed_commands)


def dialect_for(vendor: str) -> str:
    """Validate and return the dialect name for a vendor."""
    if vendor not in _PARSERS:
        raise KeyError(f"no config dialect for vendor {vendor!r}")
    return vendor
