"""Tests for the topology model, including the failure overlay."""

import pytest

from repro.net.topology import Router, Topology, TopologyError


def small_triangle() -> Topology:
    topo = Topology()
    for name in ("A", "B", "C"):
        topo.add_router(Router(name=name))
    topo.connect("A", "B", igp_cost=10)
    topo.connect("B", "C", igp_cost=20)
    topo.connect("A", "C", igp_cost=30)
    return topo


class TestInventory:
    def test_add_and_lookup(self):
        topo = small_triangle()
        assert len(topo) == 3
        assert topo.router("A").name == "A"
        assert "A" in topo
        assert len(topo.links) == 3

    def test_duplicate_router_rejected(self):
        topo = small_triangle()
        with pytest.raises(TopologyError):
            topo.add_router(Router(name="A"))

    def test_unknown_router_rejected(self):
        topo = small_triangle()
        with pytest.raises(TopologyError):
            topo.router("Z")

    def test_link_requires_both_endpoints(self):
        topo = Topology()
        topo.add_router(Router(name="A"))
        with pytest.raises(TopologyError):
            topo.connect("A", "Z")

    def test_remove_router_drops_links(self):
        topo = small_triangle()
        topo.remove_router("B")
        assert len(topo.links) == 1
        assert topo.find_link("A", "C") is not None
        assert topo.find_link("A", "B") is None

    def test_find_link_and_between(self):
        topo = small_triangle()
        link = topo.find_link("A", "B")
        assert link is not None
        assert set(link.endpoints) == {"A", "B"}
        assert topo.links_between("A", "B") == [link]

    def test_parallel_links(self):
        topo = small_triangle()
        topo.connect("A", "B", igp_cost=10)
        assert len(topo.links_between("A", "B")) == 2

    def test_link_other_end(self):
        topo = small_triangle()
        link = topo.find_link("A", "B")
        assert link.other_end("A").router == "B"
        assert link.interface_on("A").router == "A"
        with pytest.raises(TopologyError):
            link.other_end("C")

    def test_link_groups(self):
        topo = small_triangle()
        topo.connect("A", "B", group="lag1")
        topo.connect("A", "B", group="lag1")
        assert len(topo.links_in_group("lag1")) == 2

    def test_router_id_stable(self):
        assert Router(name="X").router_id == Router(name="X").router_id


    def test_connect_on_a_copy_numbers_on_from_the_source(self):
        topo = small_triangle()
        topo.add_router(Router(name="D"))
        copy = topo.copy()
        added = copy.connect("A", "D")
        # an add-link plan's interfaces never reuse a name on either router
        for router in copy.router_names:
            names = [link.interface_on(router).name for link in copy.links_of(router)]
            assert len(names) == len(set(names))
        assert added.interface_on("A").name == "eth4"
        # the source numbers on by itself, untouched by the copy's connect
        assert topo.connect("B", "D").interface_on("B").name == "eth4"
        assert copy.connect("B", "D").interface_on("B").name == "eth5"


class TestFailureOverlay:
    def test_fail_and_restore_link(self):
        topo = small_triangle()
        link = topo.find_link("A", "B")
        topo.fail_link(link)
        assert not topo.link_is_up(link)
        assert len(topo.up_links) == 2
        assert dict(topo.neighbors("A")).keys() == {"C"}
        topo.restore_link(link)
        assert topo.link_is_up(link)

    def test_fail_router_takes_links_down(self):
        topo = small_triangle()
        topo.fail_router("B")
        assert not topo.router_is_up("B")
        assert len(topo.up_links) == 1
        assert list(topo.neighbors("B")) == []

    def test_clear_failures(self):
        topo = small_triangle()
        topo.fail_router("B")
        topo.fail_link(topo.find_link("A", "C"))
        topo.clear_failures()
        assert len(topo.up_links) == 3

    def test_copy_preserves_failures_independently(self):
        topo = small_triangle()
        topo.fail_router("B")
        clone = topo.copy()
        clone.clear_failures()
        assert not topo.router_is_up("B")
        assert clone.router_is_up("B")

    def test_stats(self):
        topo = small_triangle()
        topo.fail_router("B")
        stats = topo.stats()
        assert stats["routers"] == 3
        assert stats["failed_routers"] == 1
