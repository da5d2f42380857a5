"""Per-length prefix hash tables for longest-prefix-match and all-match queries.

Used by the RIBs for data-plane forwarding lookups and by the flow
equivalence-class computation (§3.1), which needs, for every destination
address, the *vector* of longest-prefix matches across all device RIBs.

Each address family holds one hash table per prefix length present,
keyed by network value, plus the ascending list of those lengths. A query
masks the address once per present length and probes that table, so its
cost grows with the number of distinct lengths (two in a generated WAN:
/24 and /32), not with the address width.
"""

from __future__ import annotations

from typing import Dict, Generic, List, Optional, Tuple, TypeVar

from repro.net.addr import IPAddress, Prefix, family_bits

V = TypeVar("V")


class PrefixTrie(Generic[V]):
    """Per-family, per-length hash tables mapping prefixes to lists of values."""

    def __init__(self) -> None:
        #: family -> length -> network value -> values (insertion order)
        self._tables: Dict[int, Dict[int, Dict[int, List[V]]]] = {}
        #: family -> lengths present, ascending
        self._lengths: Dict[int, List[int]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert a value under a prefix (multiple values per prefix allowed)."""
        family = prefix.family
        by_length = self._tables.get(family)
        if by_length is None:
            by_length = self._tables[family] = {}
        table = by_length.get(prefix.length)
        if table is None:
            table = by_length[prefix.length] = {}
            self._lengths[family] = sorted(by_length)
        values = table.get(prefix.value)
        if values is None:
            table[prefix.value] = [value]
        else:
            values.append(value)
        self._size += 1

    def _matches(
        self, family: int, value: int, max_length: int
    ) -> List[Tuple[int, int, List[V]]]:
        """``(length, network, values)`` stored over ``value`` with
        ``length <= max_length``, shortest first; empty value lists skipped."""
        by_length = self._tables.get(family)
        if by_length is None:
            return []
        bits = family_bits(family)
        found = []
        for length in self._lengths[family]:
            if length > max_length:
                break
            shift = bits - length
            network = value >> shift << shift
            values = by_length[length].get(network)
            if values:
                found.append((length, network, values))
        return found

    def lookup_lpm(self, address: IPAddress) -> Optional[Tuple[Prefix, List[V]]]:
        """Longest-prefix match for an address; None if nothing matches."""
        family = address.family
        by_length = self._tables.get(family)
        if by_length is None:
            return None
        bits = family_bits(family)
        value = address.value
        for length in reversed(self._lengths[family]):
            shift = bits - length
            network = value >> shift << shift
            values = by_length[length].get(network)
            if values:
                return Prefix(family, network, length), list(values)
        return None

    def all_matches(self, address: IPAddress) -> List[Tuple[Prefix, List[V]]]:
        """All (prefix, values) entries covering an address, shortest first."""
        family = address.family
        return [
            (Prefix(family, network, length), list(values))
            for length, network, values in self._matches(
                family, address.value, family_bits(family)
            )
        ]

    def covering_values(self, prefix: Prefix) -> List[V]:
        """Values stored at prefixes that contain ``prefix`` (including equal).

        Shortest prefix first; values under one prefix keep insertion
        order. This is the primitive behind blast-radius membership and
        the touched-slot tables of a spread reuse.
        """
        found: List[V] = []
        for _, _, values in self._matches(prefix.family, prefix.value, prefix.length):
            found.extend(values)
        return found
