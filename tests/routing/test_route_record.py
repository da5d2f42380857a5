"""A route is a prefix plus a shared attribute record.

``Route`` keeps its prefix in one slot and every other field in an
interned :class:`RouteAttrs` record. None of that may show through its
public behaviour: fields read back, the §3.1 keys keep their formulas
(``golden.json`` fingerprints hash them), equality and hashing cover every
field, fields cannot be assigned, and pickling carries fields only.
Interning must not change any value.
"""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from repro import perfopts
from repro.net.addr import IPAddress, Prefix
from repro.routing import attributes
from repro.routing.attributes import Route, RouteAttrs

_PREFIXES = st.sampled_from(
    [Prefix.parse(text) for text in ("10.0.0.0/16", "10.1.0.0/24", "192.0.2.0/24")]
)

#: a strategy per non-prefix field, in record order
_VALUES = {
    "nexthop": st.none()
    | st.sampled_from(["192.0.2.1", "198.51.100.7"]).map(IPAddress.parse),
    "as_path": st.lists(st.sampled_from([64500, 64501, 65000]), max_size=3).map(
        tuple
    ),
    "origin": st.sampled_from(
        [attributes.ORIGIN_IGP, attributes.ORIGIN_EGP, attributes.ORIGIN_INCOMPLETE]
    ),
    "local_pref": st.sampled_from([100, 200]),
    "med": st.sampled_from([0, 10]),
    "communities": st.frozensets(
        st.sampled_from(["64500:1", "64500:2", "65000:9"])
    ),
    "weight": st.sampled_from([0, 50]),
    "preference": st.sampled_from([20, 200, 255]),
    "protocol": st.sampled_from(
        [attributes.PROTO_BGP, attributes.PROTO_STATIC, attributes.PROTO_AGGREGATE]
    ),
    "source": st.sampled_from(
        [attributes.SOURCE_EBGP, attributes.SOURCE_IBGP, attributes.SOURCE_LOCAL]
    ),
    "igp_cost": st.sampled_from([0, 5]),
    "origin_router": st.sampled_from(["", "r1", "r2"]),
    "origin_vrf": st.sampled_from(["global", "red"]),
    "aggregator": st.none() | st.sampled_from(["r1"]),
    "flags": st.frozensets(st.sampled_from(["direct32", "leaked"])),
}
_FIELDS = ("prefix",) + tuple(_VALUES)
_ALL = dict(prefix=_PREFIXES, **_VALUES)

_fields = st.fixed_dictionaries(_ALL)
#: a change set for ``evolve``: any subset of the fields
_changes = st.fixed_dictionaries({}, optional=_ALL)


@pytest.fixture(autouse=True)
def _interning_on():
    # Pinned on, also under ``--perfopts-off``: the flag-off arm is drawn
    # explicitly where a test compares the two.
    with perfopts.configured(intern_routes=True):
        yield


def _attribute_key(fields):
    """The reference formula of ``Route.attribute_key``."""
    return (
        fields["nexthop"],
        fields["as_path"],
        fields["origin"],
        fields["local_pref"],
        fields["med"],
        tuple(sorted(fields["communities"])),
        fields["weight"],
        fields["preference"],
        fields["protocol"],
        fields["source"],
        tuple(sorted(fields["flags"])),
    )


def _canonical_key(fields):
    """The reference formula of ``Route.canonical_key``."""
    return (
        fields["prefix"],
        fields["origin_router"],
        fields["origin_vrf"],
        fields["aggregator"],
        fields["igp_cost"],
        _attribute_key(fields),
    )


def _read(route):
    return {name: getattr(route, name) for name in _FIELDS}


def test_the_record_is_every_field_but_the_prefix_in_declaration_order():
    assert RouteAttrs._fields == _FIELDS[1:]
    assert Route.__slots__ == ("prefix", "attrs")


@settings(max_examples=200, deadline=None)
@given(_fields)
def test_fields_read_back_and_keys_keep_their_formulas(fields):
    route = Route(**fields)
    assert _read(route) == fields
    assert route.attrs == tuple(fields[name] for name in _FIELDS[1:])
    assert route.attribute_key() == _attribute_key(fields)
    assert route.canonical_key() == _canonical_key(fields)


@settings(max_examples=200, deadline=None)
@given(_fields, _changes)
def test_evolve_changes_exactly_the_given_fields(fields, changes):
    evolved = Route(**fields).evolve(**changes)
    expected = {**fields, **changes}
    assert _read(evolved) == expected
    assert evolved == Route(**expected)
    assert evolved.canonical_key() == _canonical_key(expected)


@settings(max_examples=300, deadline=None)
@given(_fields, _changes)
def test_equal_exactly_when_every_field_is_and_hash_agrees(fields, changes):
    a = Route(**fields)
    b = Route(**{**fields, **changes})
    same = fields == {**fields, **changes}
    assert (a == b) is same
    assert (a != b) is not same
    if same:
        assert hash(a) == hash(b)
    assert a != fields  # never equal to a non-route


@settings(max_examples=100, deadline=None)
@given(_fields, _PREFIXES)
def test_with_prefix_is_evolve_of_the_prefix(fields, prefix):
    route = Route(**fields)
    clone = route.with_prefix(prefix)
    assert clone == route.evolve(prefix=prefix)
    assert clone.prefix == prefix
    assert clone.attrs is route.attrs


@settings(max_examples=100, deadline=None)
@given(_fields, _changes)
def test_a_pickle_round_trip_lands_on_the_live_record(fields, changes):
    route = Route(**fields).evolve(**changes)
    loaded = pickle.loads(pickle.dumps(route, protocol=pickle.HIGHEST_PROTOCOL))
    assert loaded == route
    assert hash(loaded) == hash(route)
    assert loaded.attrs is route.attrs


@settings(max_examples=50, deadline=None)
@given(_fields, st.sampled_from(_FIELDS + ("attrs",)))
def test_no_field_can_be_assigned(fields, name):
    route = Route(**fields)
    with pytest.raises(FrozenInstanceError):
        setattr(route, name, fields.get(name))
    with pytest.raises(FrozenInstanceError):
        delattr(route, name)
    assert _read(route) == fields


@settings(max_examples=200, deadline=None)
@given(_fields, _changes, _PREFIXES)
def test_interning_never_changes_a_value(fields, changes, prefix):
    def build():
        route = Route(**fields)
        evolved = route.evolve(**changes)
        return [route, evolved, evolved.with_prefix(prefix)]

    interned = build()
    with perfopts.configured(intern_routes=False):
        plain = build()
        plain_keys = [(r.attribute_key(), r.canonical_key()) for r in plain]
    assert interned == plain
    assert [hash(r) for r in interned] == [hash(r) for r in plain]
    assert [str(r) for r in interned] == [str(r) for r in plain]
    assert [(r.attribute_key(), r.canonical_key()) for r in interned] == plain_keys


def test_unknown_fields_are_rejected():
    route = Route(prefix=Prefix.parse("10.0.0.0/24"))
    with pytest.raises(TypeError, match="bogus"):
        route.evolve(bogus=1)
    with pytest.raises(TypeError):
        Route(prefix=route.prefix, bogus=1)
