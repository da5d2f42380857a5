"""Tests for how the prepared base world is kept: by reference, frozen."""

import pytest

from repro.net.addr import as_prefix
from repro.net.device import GLOBAL_VRF
from repro.routing.inputs import inject_external_route
from repro.routing.rib import DeviceRib


def make_rib(name="A", prefix="10.1.0.0/16"):
    rib = DeviceRib(name)
    item = inject_external_route(name, prefix, (64999,))
    rib.install(item.route, vrf=GLOBAL_VRF, route_type="bgp")
    return rib


class TestCoversAsPrefixSanity:
    def test_rib_prefix_round_trip(self):
        rib = make_rib()
        assert as_prefix("10.1.0.0/16") in rib.prefixes(GLOBAL_VRF)


class TestPreparedBaseLeavesTheCollector:
    """``snapshot_base`` moves the base to the collector's permanent generation."""

    @pytest.fixture(autouse=True)
    def collector_as_found(self):
        import gc

        gc.unfreeze()
        yield
        gc.unfreeze()

    @staticmethod
    def square_world():
        from tests.helpers import build_model, full_mesh_ibgp

        model = build_model(
            routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
            links=[("A", "B", 10), ("B", "D", 10), ("A", "C", 20), ("C", "D", 20)],
        )
        full_mesh_ibgp(model, ["A", "B", "C", "D"])
        return model, [inject_external_route("D", "203.0.113.0/24", (65010,))]

    def test_prepared_verifier_is_out_of_reach_and_freed_when_dropped(self):
        import gc

        from repro.core import ChangeVerifier

        model, inputs = self.square_world()
        verifier = ChangeVerifier(model, inputs, [])
        assert gc.get_freeze_count() == 0
        verifier.prepare_base()
        retired = gc.get_freeze_count()
        assert retired > 0
        tracked = {id(obj) for obj in gc.get_objects()}
        assert id(verifier.base_world.device_ribs) not in tracked
        # reference counting still frees a retired base
        del verifier
        assert gc.get_freeze_count() < retired

    def test_prepared_kfailure_engine_is_out_of_reach(self):
        import gc

        from repro.kfailure import KFailureEngine

        model, inputs = self.square_world()
        engine = KFailureEngine(model, inputs)
        engine.prepare()
        assert gc.get_freeze_count() > 0
        tracked = {id(obj) for obj in gc.get_objects()}
        assert id(engine.base_result.device_ribs) not in tracked

    def test_operations_build_no_reference_cycle(self):
        """The premise: nothing retired, or built later, needs the collector."""
        import gc

        from repro.core import ChangePlan, ChangeVerifier, RclIntent
        from repro.kfailure import KFailureEngine, reachability_property
        from repro.workload.routes import generate_input_routes
        from repro.workload.wan import WanParams, generate_wan

        def operations():
            model, inputs = self.square_world()
            verifier = ChangeVerifier(model, inputs, [])
            plan = ChangePlan(
                name="noop-patch",
                change_type="os-patch",
                device_commands={"A": ["router isis"]},
                intents=[RclIntent("PRE = POST")],
            )
            assert verifier.verify(plan).ok
            model, inventory = generate_wan(
                WanParams(regions=3, trunk_members=2, seed=7)
            )
            inputs = generate_input_routes(inventory, n_prefixes=40, seed=7)
            engine = KFailureEngine(model, inputs)
            prefix = str(inputs[0].route.prefix)
            engine.check(1, reachability_property(prefix, sorted(model.devices)[:4]))

        gc.collect()
        gc.disable()
        try:
            operations()
            gc.unfreeze()
            assert gc.collect() == 0
        finally:
            gc.enable()
