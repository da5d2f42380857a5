"""Tests for link-load aggregation and flow primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.traffic.flow import make_flow
from repro.traffic.forwarding import FlowPath, STATUS_EXITED
from repro.traffic.load import LinkContributions, LinkLoadMap, link_key

from tests.helpers import build_model


class TestLinkKey:
    def test_canonical_undirected(self):
        assert link_key("A", "B") == link_key("B", "A") == ("A", "B")


class TestLinkLoadMap:
    def test_add_accumulates_both_directions(self):
        loads = LinkLoadMap()
        loads.add("A", "B", 10.0)
        loads.add("B", "A", 5.0)
        assert loads.get("A", "B") == 15.0
        assert loads.get("B", "A") == 15.0
        assert loads.get("A", "C") == 0.0

    def test_merge(self):
        a = LinkLoadMap()
        a.add("A", "B", 10.0)
        b = LinkLoadMap()
        b.add("A", "B", 5.0)
        b.add("B", "C", 1.0)
        merged = a.merge(b)
        assert merged.get("A", "B") == 15.0
        assert merged.get("B", "C") == 1.0
        assert a.get("A", "B") == 10.0  # inputs untouched

    def test_utilization_pools_parallel_links(self):
        model = build_model(routers=[("A", 1), ("B", 1)], links=[])
        model.topology.connect("A", "B", bandwidth=100.0)
        model.topology.connect("A", "B", bandwidth=100.0)
        loads = LinkLoadMap()
        loads.add("A", "B", 100.0)
        util = loads.utilization(model.topology)
        assert util[("A", "B")] == pytest.approx(0.5)

    def test_overloaded_links_sorted_desc(self):
        model = build_model(
            routers=[("A", 1), ("B", 1), ("C", 1)], links=[]
        )
        model.topology.connect("A", "B", bandwidth=100.0)
        model.topology.connect("B", "C", bandwidth=100.0)
        loads = LinkLoadMap()
        loads.add("A", "B", 150.0)
        loads.add("B", "C", 300.0)
        overloaded = loads.overloaded_links(model.topology)
        assert [key for key, _ in overloaded] == [("B", "C"), ("A", "B")]

    def test_overloaded_ties_do_not_depend_on_insertion_order(self):
        model = build_model(routers=[("A", 1), ("B", 1), ("C", 1)], links=[])
        model.topology.connect("A", "B", bandwidth=100.0)
        model.topology.connect("B", "C", bandwidth=100.0)
        orders = []
        for links in ((("B", "C"), ("A", "B")), (("A", "B"), ("B", "C"))):
            loads = LinkLoadMap()
            for a, b in links:
                loads.add(a, b, 200.0)
            orders.append(loads.overloaded_links(model.topology))
        assert orders[0] == orders[1] == [(("A", "B"), 2.0), (("B", "C"), 2.0)]

    def test_compare(self):
        a = LinkLoadMap()
        a.add("A", "B", 10.0)
        b = LinkLoadMap()
        b.add("A", "B", 4.0)
        b.add("B", "C", 1.0)
        delta = a.compare(b)
        assert delta[("A", "B")] == pytest.approx(6.0)
        assert delta[("B", "C")] == pytest.approx(-1.0)

    def test_total_and_len(self):
        loads = LinkLoadMap()
        loads.add("A", "B", 1.0)
        loads.add("B", "C", 2.0)
        assert loads.total() == 3.0
        assert len(loads) == 2


class TestFlow:
    def test_flow_is_hashable(self):
        a = make_flow("A", "1.1.1.1", "2.2.2.2")
        assert len({a, make_flow("A", "1.1.1.1", "2.2.2.2")}) == 1

    def test_str(self):
        text = str(make_flow("A", "1.1.1.1", "2.2.2.2", volume=5.0))
        assert "1.1.1.1" in text and "@A" in text


@given(
    volumes=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=20)
)
def test_total_load_conserved_property(volumes):
    """Sum of per-link loads == volume x hops for single-path flows."""
    loads = LinkLoadMap()
    for index, volume in enumerate(volumes):
        flow = make_flow("A", "1.1.1.1", "2.2.2.2", src_port=index, volume=volume)
        path = FlowPath(flow=flow, routers=["A", "B", "C"], status=STATUS_EXITED)
        for a, b in path.links:
            loads.add(a, b, volume)
    assert loads.total() == pytest.approx(2 * sum(volumes))


# -- patching a merge -------------------------------------------------------------

ROUTERS = ("A", "B", "C", "D", "E")
FLOW = make_flow("A", "1.1.1.1", "2.2.2.2")


def merge(work):
    """The simulator's merge: every crossing added in work order."""
    loads = LinkLoadMap()
    for volume, spread in work:
        for path, fraction in spread:
            for a, b in path.links:
                loads.add(a, b, volume * fraction)
    return loads


@st.composite
def spreads(draw):
    paths = draw(
        st.lists(
            st.lists(st.sampled_from(ROUTERS), min_size=1, max_size=5),
            min_size=1,
            max_size=3,
        )
    )
    return [
        (FlowPath(flow=FLOW, routers=routers, status=STATUS_EXITED), 1 / len(paths))
        for routers in paths
    ]


@st.composite
def patched_work(draw):
    volume = st.floats(min_value=0.1, max_value=1e9)
    work = draw(st.lists(st.tuples(volume, spreads()), min_size=1, max_size=8))
    indices = draw(st.sets(st.integers(0, len(work) - 1)))
    return work, {index: draw(spreads()) for index in indices}


@given(patched_work())
def test_patch_equals_a_full_merge(case):
    """Floats and key order, including links that appear, vanish or move up."""
    work, new = case
    contributions = LinkContributions(work)
    replaced = {i: (work[i][0], work[i][1], spread) for i, spread in new.items()}
    patched, links = contributions.patch(merge(work), replaced)
    expected = merge(
        [(volume, new.get(i, spread)) for i, (volume, spread) in enumerate(work)]
    )
    assert list(patched.loads.items()) == list(expected.loads.items())
    assert links == len(
        {
            link_key(a, b)
            for _, old, spread in replaced.values()
            for path, _ in old + spread
            for a, b in path.links
        }
    )


def test_patch_leaves_the_base_map_alone():
    def spread(*routers):
        return [(FlowPath(flow=FLOW, routers=list(routers), status=STATUS_EXITED), 1.0)]

    work = [(10.0, spread("A", "B"))]
    base = merge(work)
    moved = spread("A", "C")
    patched, _ = LinkContributions(work).patch(base, {0: (10.0, work[0][1], moved)})
    assert base.loads == {("A", "B"): 10.0}
    assert patched.loads == {("A", "C"): 10.0}
