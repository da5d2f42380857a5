"""Unit and property tests for repro.net.addr."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import (
    IPAddress,
    Prefix,
    PrefixRange,
    as_address,
    as_prefix,
    iter_host_addresses,
)


class TestIPAddress:
    def test_parse_v4(self):
        addr = IPAddress.parse("10.0.0.1")
        assert addr.family == 4
        assert addr.value == (10 << 24) + 1
        assert str(addr) == "10.0.0.1"

    def test_parse_v6(self):
        addr = IPAddress.parse("2001:db8::1")
        assert addr.family == 6
        assert str(addr) == "2001:db8::1"

    def test_value_range_checked(self):
        with pytest.raises(ValueError):
            IPAddress(4, 1 << 32)
        with pytest.raises(ValueError):
            IPAddress(4, -1)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            IPAddress(5, 0)

    def test_ordering_v4_before_v6(self):
        v4 = IPAddress.parse("255.255.255.255")
        v6 = IPAddress.parse("::1")
        assert v4 < v6

    def test_hashable(self):
        assert len({IPAddress.parse("1.1.1.1"), IPAddress.parse("1.1.1.1")}) == 1


class TestPrefix:
    def test_parse(self):
        p = Prefix.parse("10.0.0.0/24")
        assert (p.family, p.length) == (4, 24)
        assert str(p) == "10.0.0.0/24"

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix(4, 1, 24)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            Prefix(4, 0, 33)

    def test_first_last(self):
        p = Prefix.parse("10.0.0.0/24")
        assert str(p.first_address) == "10.0.0.0"
        assert str(p.last_address) == "10.0.0.255"
        assert p.size == 256

    def test_from_address_masks_host_bits(self):
        p = Prefix.from_address(IPAddress.parse("10.0.0.77"), 24)
        assert str(p) == "10.0.0.0/24"

    def test_host_prefix(self):
        p = Prefix.host("192.0.2.5")
        assert p.length == 32
        assert p.size == 1

    def test_contains_address(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.contains_address(IPAddress.parse("10.255.0.1"))
        assert not p.contains_address(IPAddress.parse("11.0.0.1"))
        assert not p.contains_address(IPAddress.parse("2001:db8::1"))

    def test_contains_prefix(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.1.0.0/16")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)
        assert outer.contains_prefix(outer)

    def test_overlaps(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.1.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_supernet(self):
        p = Prefix.parse("10.1.0.0/16")
        assert str(p.supernet(8)) == "10.0.0.0/8"
        assert str(p.supernet()) == "10.0.0.0/15"
        with pytest.raises(ValueError):
            p.supernet(24)

    def test_subnets(self):
        low, high = Prefix.parse("10.0.0.0/8").subnets()
        assert str(low) == "10.0.0.0/9"
        assert str(high) == "10.128.0.0/9"
        with pytest.raises(ValueError):
            Prefix.host("1.2.3.4").subnets()

    def test_ordering_key_sorts_by_last_address(self):
        # The §3.2 example sorts r1..r6 as [r1, r2, r6, r4, r3, r5]
        prefixes = {
            "r1": Prefix.parse("10.0.0.0/24"),
            "r2": Prefix.parse("10.0.1.0/24"),
            "r3": Prefix.parse("30.0.1.0/24"),
            "r4": Prefix.parse("30.0.0.0/24"),
            "r5": Prefix.parse("40.0.0.0/24"),
            "r6": Prefix.parse("20.0.0.0/16"),
        }
        ordered = sorted(prefixes, key=lambda k: prefixes[k].ordering_key())
        assert ordered == ["r1", "r2", "r6", "r4", "r3", "r5"]

    def test_v6(self):
        p = Prefix.parse("2001:db8::/32")
        assert p.bits == 128
        assert p.contains_address(IPAddress.parse("2001:db8::42"))


class TestPrefixRange:
    def test_of_prefix(self):
        r = PrefixRange.of_prefix(Prefix.parse("10.0.0.0/24"))
        assert r.contains(IPAddress.parse("10.0.0.255"))
        assert not r.contains(IPAddress.parse("10.0.1.0"))

    def test_spanning(self):
        r = PrefixRange.spanning(
            [Prefix.parse("10.0.0.0/24"), Prefix.parse("20.0.0.0/8")]
        )
        assert str(r) == "[10.0.0.0, 20.255.255.255]"

    def test_spanning_empty_rejected(self):
        with pytest.raises(ValueError):
            PrefixRange.spanning([])

    def test_spanning_mixed_family_rejected(self):
        with pytest.raises(ValueError):
            PrefixRange.spanning(
                [Prefix.parse("10.0.0.0/8"), Prefix.parse("2001:db8::/32")]
            )

    def test_overlap(self):
        a = PrefixRange.of_prefix(Prefix.parse("10.0.0.0/8"))
        b = PrefixRange.of_prefix(Prefix.parse("10.255.0.0/16"))
        c = PrefixRange.of_prefix(Prefix.parse("11.0.0.0/8"))
        assert a.overlaps(b)
        assert not a.overlaps(c)
        v6 = PrefixRange.of_prefix(Prefix.parse("::/0"))
        assert not a.overlaps(v6)

    def test_merge(self):
        a = PrefixRange.of_prefix(Prefix.parse("10.0.0.0/24"))
        b = PrefixRange.of_prefix(Prefix.parse("10.0.2.0/24"))
        merged = a.merge(b)
        assert merged.contains(IPAddress.parse("10.0.1.5"))

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            PrefixRange(4, 10, 5)


class TestCoercions:
    def test_as_prefix(self):
        assert as_prefix("10.0.0.0/8") == Prefix.parse("10.0.0.0/8")
        p = Prefix.parse("10.0.0.0/8")
        assert as_prefix(p) is p

    def test_as_address(self):
        assert as_address("1.2.3.4") == IPAddress.parse("1.2.3.4")

    def test_iter_host_addresses_bounded(self):
        addrs = list(iter_host_addresses(Prefix.parse("10.0.0.0/8"), limit=10))
        assert len(addrs) == 10
        assert str(addrs[0]) == "10.0.0.0"


# -- property-based tests ----------------------------------------------------

v4_addresses = st.integers(min_value=0, max_value=(1 << 32) - 1).map(
    lambda v: IPAddress(4, v)
)
v4_lengths = st.integers(min_value=0, max_value=32)


@given(addr=v4_addresses, length=v4_lengths)
def test_prefix_always_contains_seed_address(addr, length):
    prefix = Prefix.from_address(addr, length)
    assert prefix.contains_address(addr)
    assert prefix.first_value <= addr.value <= prefix.last_value


@given(addr=v4_addresses, length=st.integers(min_value=1, max_value=32))
def test_supernet_contains_subnet(addr, length):
    prefix = Prefix.from_address(addr, length)
    assert prefix.supernet().contains_prefix(prefix)


@given(addr=v4_addresses, length=st.integers(min_value=0, max_value=31))
def test_subnets_partition_prefix(addr, length):
    prefix = Prefix.from_address(addr, length)
    low, high = prefix.subnets()
    assert low.size + high.size == prefix.size
    assert prefix.contains_prefix(low) and prefix.contains_prefix(high)
    assert not low.overlaps(high)


@given(a=v4_addresses, b=v4_addresses, la=v4_lengths, lb=v4_lengths)
def test_overlap_iff_range_overlap(a, b, la, lb):
    pa, pb = Prefix.from_address(a, la), Prefix.from_address(b, lb)
    range_overlap = PrefixRange.of_prefix(pa).overlaps(PrefixRange.of_prefix(pb))
    assert pa.overlaps(pb) == range_overlap


@given(addr=v4_addresses)
def test_parse_roundtrip(addr):
    assert IPAddress.parse(str(addr)) == addr
