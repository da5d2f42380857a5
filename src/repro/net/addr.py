"""Integer-based IPv4/IPv6 addressing primitives.

Hoyan simulates millions of prefixes, so the address types here are designed
for speed: an address is a ``(family, int)`` pair and a prefix adds a length.
All types are immutable and hashable so they can key RIB tables and
equivalence-class maps.

The paper's ordering heuristic (§3.2) sorts routes by "the last IP address in
the prefix" and flows by destination address; :class:`Prefix` exposes
``first_address`` / ``last_address`` and :class:`PrefixRange` models the
closed address ranges recorded in the subtask DB.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Union

from repro import perfopts

V4 = 4
V6 = 6

_MAX_LEN = {V4: 32, V6: 128}
_MAX_VAL = {V4: (1 << 32) - 1, V6: (1 << 128) - 1}

# Interning tables for parse results (text -> instance). Bounded by a crude
# clear-on-overflow so pathological workloads cannot grow them without limit;
# gated by ``perfopts.OPTS.intern_parse``.
_PARSE_CACHE_LIMIT = 1 << 16
_ADDRESS_PARSE_CACHE: Dict[str, "IPAddress"] = {}
_PREFIX_PARSE_CACHE: Dict[str, "Prefix"] = {}


def family_bits(family: int) -> int:
    """Return the address width in bits for an address family (4 or 6)."""
    try:
        return _MAX_LEN[family]
    except KeyError:
        raise ValueError(f"unknown address family: {family!r}") from None


@dataclass(frozen=True, order=True)
class IPAddress:
    """An immutable IPv4 or IPv6 address stored as an integer.

    Ordering compares ``(family, value)`` so mixed-family collections sort
    deterministically with all IPv4 addresses before IPv6 ones.
    """

    family: int
    value: int

    def __post_init__(self) -> None:
        bits = family_bits(self.family)
        if not 0 <= self.value <= _MAX_VAL[self.family]:
            raise ValueError(
                f"address value {self.value} out of range for IPv{self.family} "
                f"({bits} bits)"
            )

    @classmethod
    def parse(cls, text: str) -> "IPAddress":
        """Parse dotted-quad or colon-hex text into an address.

        Results are interned: repeated parses of the same text share one
        immutable instance (and its cached string rendering).
        """
        if perfopts.OPTS.intern_parse:
            cached = _ADDRESS_PARSE_CACHE.get(text)
            if cached is not None:
                return cached
        addr = ipaddress.ip_address(text.strip())
        result = cls(addr.version, int(addr))
        if perfopts.OPTS.intern_parse:
            if len(_ADDRESS_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
                _ADDRESS_PARSE_CACHE.clear()
            _ADDRESS_PARSE_CACHE[text] = result
        return result

    def __str__(self) -> str:
        return self._text()

    def _text(self) -> str:
        # Rendering through the ipaddress module is surprisingly expensive
        # and shows up in sort keys and log lines; cache per instance.
        text = self.__dict__.get("_text_cache")
        if text is None:
            if self.family == V4:
                text = str(ipaddress.IPv4Address(self.value))
            else:
                text = str(ipaddress.IPv6Address(self.value))
            self.__dict__["_text_cache"] = text
        return text

    def sort_key(self) -> Tuple[int, int]:
        """Cheap deterministic ordering key (no text rendering)."""
        return (self.family, self.value)

    def __hash__(self) -> int:
        # Addresses key IGP-cost caches and adjacency maps; the generated
        # dataclass hash rebuilds a field tuple per call, so cache it.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.family, self.value))
            self.__dict__["_hash"] = h
        return h

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __repr__(self) -> str:
        return f"IPAddress({self._text()!r})"


@dataclass(frozen=True)
class Prefix:
    """An immutable IP prefix (network address + mask length).

    The host bits of ``value`` must be zero; use :meth:`parse` or
    :meth:`from_address` to normalize.
    """

    family: int
    value: int
    length: int

    def __post_init__(self) -> None:
        bits = family_bits(self.family)
        if not 0 <= self.length <= bits:
            raise ValueError(f"prefix length {self.length} invalid for IPv{self.family}")
        if not 0 <= self.value <= _MAX_VAL[self.family]:
            raise ValueError("prefix network value out of range")
        host_mask = (1 << (bits - self.length)) - 1 if self.length < bits else 0
        if self.value & host_mask:
            raise ValueError(
                f"prefix {self.value:#x}/{self.length} has nonzero host bits"
            )
        # Unique int identity (length needs 8 bits, family flag 1 bit).
        # Ints hash at C speed, so the simulator keys its internal hot
        # tables by ``ident`` instead of paying a Python-level
        # ``Prefix.__hash__`` call per dictionary operation.
        self.__dict__["ident"] = (
            self.value << 9 | self.length << 1 | (1 if self.family == V6 else 0)
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/24"`` or ``"2001:db8::/32"`` into a prefix.

        Results are interned: workloads parse the same prefix strings over
        and over (route feeds, policy definitions), and sharing one frozen
        instance also shares its cached hash.
        """
        if perfopts.OPTS.intern_parse:
            cached = _PREFIX_PARSE_CACHE.get(text)
            if cached is not None:
                return cached
        net = ipaddress.ip_network(text.strip(), strict=True)
        result = cls(net.version, int(net.network_address), net.prefixlen)
        if perfopts.OPTS.intern_parse:
            if len(_PREFIX_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
                _PREFIX_PARSE_CACHE.clear()
            _PREFIX_PARSE_CACHE[text] = result
        return result

    @classmethod
    def from_address(cls, address: IPAddress, length: Optional[int] = None) -> "Prefix":
        """Build a prefix covering ``address``, masking off host bits."""
        bits = family_bits(address.family)
        if length is None:
            length = bits
        host_bits = bits - length
        value = (address.value >> host_bits) << host_bits
        return cls(address.family, value, length)

    @classmethod
    def host(cls, text: str) -> "Prefix":
        """Build a full-length host prefix from address text."""
        addr = IPAddress.parse(text)
        return cls.from_address(addr)

    # -- properties --------------------------------------------------------

    @property
    def bits(self) -> int:
        return family_bits(self.family)

    @property
    def first_value(self) -> int:
        return self.value

    @property
    def last_value(self) -> int:
        """Integer value of the last address covered by this prefix."""
        return self.value | ((1 << (self.bits - self.length)) - 1)

    @property
    def first_address(self) -> IPAddress:
        return IPAddress(self.family, self.first_value)

    @property
    def last_address(self) -> IPAddress:
        return IPAddress(self.family, self.last_value)

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (self.bits - self.length)

    # -- relations ---------------------------------------------------------

    def contains_address(self, address: IPAddress) -> bool:
        if address.family != self.family:
            return False
        return self.first_value <= address.value <= self.last_value

    def contains_prefix(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        if other.family != self.family or other.length < self.length:
            return False
        return (other.value >> (self.bits - self.length)) == (
            self.value >> (self.bits - self.length)
        )

    def overlaps(self, other: "Prefix") -> bool:
        if other.family != self.family:
            return False
        return self.contains_prefix(other) or other.contains_prefix(self)

    def supernet(self, length: Optional[int] = None) -> "Prefix":
        """The containing prefix at ``length`` (default: one bit shorter)."""
        if length is None:
            length = self.length - 1
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot widen /{self.length} to /{length}")
        return Prefix.from_address(self.first_address, length)

    def subnets(self) -> Tuple["Prefix", "Prefix"]:
        """Split into the two half-size subnets."""
        if self.length >= self.bits:
            raise ValueError("cannot split a host prefix")
        child_len = self.length + 1
        low = Prefix(self.family, self.value, child_len)
        high = Prefix(self.family, self.value | (1 << (self.bits - child_len)), child_len)
        return low, high

    # -- ordering keys -----------------------------------------------------

    def ordering_key(self) -> Tuple[int, int, int]:
        """Sort key used by the ordering heuristic: last address, then length.

        Routes with the same prefix sort adjacently, matching §3.2's
        requirement that routes with the same prefix land in the same subtask.
        """
        return (self.family, self.last_value, self.length)

    def sort_key(self) -> Tuple[int, int, int]:
        """Cheap deterministic ordering key (no text rendering).

        Matches ``__lt__``'s ``(family, value, length)`` order; hot paths
        that only need *a* deterministic order use this instead of
        ``str(prefix)``, which would round-trip the ipaddress module.
        """
        return (self.family, self.value, self.length)

    def __hash__(self) -> int:
        # Prefixes key every RIB table, adjacency slot, and worklist in the
        # simulator; the generated dataclass hash rebuilds a field tuple per
        # call, so cache it (equal prefixes hash equal either way).
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.family, self.value, self.length))
            self.__dict__["_hash"] = h
        return h

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __str__(self) -> str:
        # Row identities, RCL field access and fingerprints render the same
        # prefix once per row; the ipaddress round trip is paid once.
        text = self.__dict__.get("_str")
        if text is None:
            text = f"{self.first_address._text()}/{self.length}"
            self.__dict__["_str"] = text
        return text

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __lt__(self, other: "Prefix") -> bool:
        return (self.family, self.value, self.length) < (
            other.family,
            other.value,
            other.length,
        )


@dataclass(frozen=True)
class PrefixRange:
    """A closed range of addresses ``[low, high]`` within one family.

    The distributed framework records, per route-simulation subtask, the
    range of addresses covered by that subtask's routes; a traffic subtask
    depends on it only if its flows' destination range overlaps (§3.2).
    """

    family: int
    low: int
    high: int

    def __post_init__(self) -> None:
        family_bits(self.family)
        if self.low > self.high:
            raise ValueError(f"empty range: low={self.low} > high={self.high}")

    @classmethod
    def of_prefix(cls, prefix: Prefix) -> "PrefixRange":
        return cls(prefix.family, prefix.first_value, prefix.last_value)

    @classmethod
    def spanning(cls, prefixes: "list[Prefix]") -> "PrefixRange":
        """Smallest range covering all prefixes (single family required)."""
        if not prefixes:
            raise ValueError("cannot span an empty prefix list")
        family = prefixes[0].family
        if any(p.family != family for p in prefixes):
            raise ValueError("spanning requires a single address family")
        return cls(
            family,
            min(p.first_value for p in prefixes),
            max(p.last_value for p in prefixes),
        )

    def overlaps(self, other: "PrefixRange") -> bool:
        if self.family != other.family:
            return False
        return self.low <= other.high and other.low <= self.high

    def contains(self, address: IPAddress) -> bool:
        return address.family == self.family and self.low <= address.value <= self.high

    def merge(self, other: "PrefixRange") -> "PrefixRange":
        if self.family != other.family:
            raise ValueError("cannot merge ranges of different families")
        return PrefixRange(self.family, min(self.low, other.low), max(self.high, other.high))

    def __str__(self) -> str:
        lo = IPAddress(self.family, self.low)._text()
        hi = IPAddress(self.family, self.high)._text()
        return f"[{lo}, {hi}]"


PrefixLike = Union[str, Prefix]


def as_prefix(value: PrefixLike) -> Prefix:
    """Coerce a string or Prefix to a Prefix."""
    if isinstance(value, Prefix):
        return value
    return Prefix.parse(value)


def as_address(value: Union[str, IPAddress]) -> IPAddress:
    """Coerce a string or IPAddress to an IPAddress."""
    if isinstance(value, IPAddress):
        return value
    return IPAddress.parse(value)


def iter_host_addresses(prefix: Prefix, limit: int = 1 << 16) -> Iterator[IPAddress]:
    """Yield addresses covered by ``prefix`` (bounded by ``limit``)."""
    count = min(prefix.size, limit)
    for offset in range(count):
        yield IPAddress(prefix.family, prefix.value + offset)
