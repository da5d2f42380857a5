"""Tests for the per-length prefix tables, including properties checked
against linear scans over the inserted entries."""

from hypothesis import given, settings, strategies as st

from repro.net.addr import IPAddress, Prefix, family_bits
from repro.net.trie import PrefixTrie


def P(text):
    return Prefix.parse(text)


def A(text):
    return IPAddress.parse(text)


class TestBasics:
    def test_empty(self):
        trie = PrefixTrie()
        assert len(trie) == 0
        assert trie.lookup_lpm(A("10.0.0.1")) is None
        assert trie.all_matches(A("10.0.0.1")) == []

    def test_lpm_prefers_longest(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "short")
        trie.insert(P("10.0.0.0/24"), "long")
        prefix, values = trie.lookup_lpm(A("10.0.0.1"))
        assert prefix == P("10.0.0.0/24")
        assert values == ["long"]
        prefix2, values2 = trie.lookup_lpm(A("10.9.0.1"))
        assert prefix2 == P("10.0.0.0/8")

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(P("0.0.0.0/0"), "default")
        prefix, values = trie.lookup_lpm(A("203.0.113.9"))
        assert prefix == P("0.0.0.0/0")
        assert values == ["default"]

    def test_all_matches_shortest_first(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), 8)
        trie.insert(P("10.0.0.0/16"), 16)
        trie.insert(P("10.0.0.0/24"), 24)
        matches = trie.all_matches(A("10.0.0.1"))
        assert [p.length for p, _ in matches] == [8, 16, 24]

    def test_families_are_independent(self):
        trie = PrefixTrie()
        trie.insert(P("::/0"), "v6")
        trie.insert(P("0.0.0.0/0"), "v4")
        assert trie.lookup_lpm(A("1.2.3.4"))[1] == ["v4"]
        assert trie.lookup_lpm(A("2001:db8::1"))[1] == ["v6"]


prefixes = st.builds(
    lambda v, l: Prefix.from_address(IPAddress(4, v), l),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)


@given(entries=st.lists(prefixes, min_size=1, max_size=30), probe=st.integers(0, (1 << 32) - 1))
def test_lpm_matches_linear_scan(entries, probe):
    """Trie LPM must agree with a brute-force longest-match scan."""
    trie = PrefixTrie()
    for p in entries:
        trie.insert(p, str(p))
    address = IPAddress(4, probe)
    expected = max(
        (p for p in entries if p.contains_address(address)),
        key=lambda p: p.length,
        default=None,
    )
    hit = trie.lookup_lpm(address)
    if expected is None:
        assert hit is None
    else:
        assert hit is not None
        assert hit[0].length == expected.length


@given(entries=st.lists(prefixes, min_size=1, max_size=30), probe=st.integers(0, (1 << 32) - 1))
def test_all_matches_complete(entries, probe):
    trie = PrefixTrie()
    for p in entries:
        trie.insert(p, str(p))
    address = IPAddress(4, probe)
    expected_lengths = sorted({p.length for p in entries if p.contains_address(address)})
    got_lengths = [p.length for p, _ in trie.all_matches(address)]
    assert got_lengths == expected_lengths


def _family_entries(family):
    """Prefixes of one family, drawn from a small pool so repeats happen."""
    bits = family_bits(family)
    pool = st.lists(
        st.builds(
            lambda v, l: Prefix.from_address(IPAddress(family, v), l),
            st.integers(0, (1 << bits) - 1),
            st.integers(0, bits),
        ),
        min_size=1,
        max_size=8,
    )
    return pool.flatmap(
        lambda chosen: st.lists(st.sampled_from(chosen), max_size=20)
    )


def _probe_near(entries, family):
    """An address inside some entry, or anywhere in the family."""
    bits = family_bits(family)
    anywhere = st.integers(0, (1 << bits) - 1).map(lambda v: IPAddress(family, v))
    if not entries:
        return anywhere
    inside = st.tuples(
        st.sampled_from(entries), st.integers(0, (1 << bits) - 1)
    ).map(
        lambda pair: IPAddress(
            family, pair[0].value | (pair[1] & (pair[0].size - 1))
        )
    )
    return st.one_of(inside, anywhere)


@st.composite
def _table_case(draw):
    v4 = draw(_family_entries(4))
    v6 = draw(_family_entries(6))
    entries = v4 + v6
    family = draw(st.sampled_from([4, 6]))
    probe = draw(_probe_near(v4 if family == 4 else v6, family))
    length = draw(st.integers(0, family_bits(family)))
    return entries, probe, Prefix.from_address(probe, length)


@settings(max_examples=200, deadline=None)
@given(case=_table_case())
def test_tables_match_linear_scans(case):
    """Every query equals a linear scan over the inserted (prefix, value)s."""
    entries, probe, probe_prefix = case
    trie = PrefixTrie()
    inserted = []
    for i, prefix in enumerate(entries):
        trie.insert(prefix, i)
        inserted.append((prefix, i))
    assert len(trie) == len(inserted)

    def values_at(prefix):
        return [value for p, value in inserted if p == prefix]

    covering = sorted(
        {p for p, _ in inserted if p.contains_address(probe)},
        key=lambda p: p.length,
    )
    assert trie.all_matches(probe) == [(p, values_at(p)) for p in covering]
    hit = trie.lookup_lpm(probe)
    if covering:
        assert hit == (covering[-1], values_at(covering[-1]))
    else:
        assert hit is None
    assert trie.covering_values(probe_prefix) == [
        value
        for p in sorted(
            {p for p, _ in inserted if p.contains_prefix(probe_prefix)},
            key=lambda p: p.length,
        )
        for value in values_at(p)
    ]
