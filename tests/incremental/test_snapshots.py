"""Tests for the content-addressed RIB snapshot store."""

import pytest

from repro.incremental.snapshots import (
    BASE_WORLD_TOKEN,
    KEY_PREFIX,
    ObjectNotFound,
    RibSnapshotStore,
    device_rib_fingerprint,
    device_token,
)
from repro.net.addr import as_prefix
from repro.net.device import GLOBAL_VRF
from repro.routing.inputs import inject_external_route
from repro.routing.rib import DeviceRib


def make_rib(name="A", prefix="10.1.0.0/16"):
    rib = DeviceRib(name)
    item = inject_external_route(name, prefix, (64999,))
    rib.install(item.route, vrf=GLOBAL_VRF, route_type="bgp")
    return rib


class TestFingerprint:
    def test_same_content_same_fingerprint(self):
        assert device_rib_fingerprint(make_rib()) == device_rib_fingerprint(
            make_rib()
        )

    def test_different_content_differs(self):
        assert device_rib_fingerprint(make_rib()) != device_rib_fingerprint(
            make_rib(prefix="10.2.0.0/16")
        )

    def test_empty_rib_has_fingerprint(self):
        assert len(device_rib_fingerprint(DeviceRib("A"))) == 64


class TestPutGet:
    def test_put_returns_prefixed_key_and_get_round_trips(self):
        store = RibSnapshotStore()
        rib = make_rib()
        key = store.put(rib)
        assert key.startswith(KEY_PREFIX)
        assert store.contains(key)
        assert store.get(key) is rib  # materialized cache
        assert store.stats.get_hits == 1

    def test_put_is_content_deduplicated(self):
        store = RibSnapshotStore()
        key1 = store.put(make_rib())
        key2 = store.put(make_rib())
        assert key1 == key2
        assert store.stats.put_stores == 1
        assert store.stats.put_hits == 1
        assert len(store) == 1

    def test_cold_get_unpickles_from_object_store(self):
        store = RibSnapshotStore()
        rib = make_rib()
        key = store.put(rib)
        store._materialized.clear()  # simulate a fresh process
        fetched = store.get(key)
        assert fetched is not rib  # crossed the serialization boundary
        assert device_rib_fingerprint(fetched) == device_rib_fingerprint(rib)
        assert store.stats.get_cold == 1
        # second read is warm again
        assert store.get(key) is fetched
        assert store.stats.get_hits == 1

    def test_get_unknown_key_raises(self):
        store = RibSnapshotStore()
        with pytest.raises(ObjectNotFound):
            store.get(KEY_PREFIX + "deadbeef")


class TestInvalidation:
    def test_invalidate_evicts_dependents(self):
        store = RibSnapshotStore()
        key = store.put(make_rib(), deps=(BASE_WORLD_TOKEN, device_token("A")))
        assert store.invalidate(BASE_WORLD_TOKEN) == 1
        assert not store.contains(key)
        assert len(store) == 0
        assert store.stats.invalidations == 1

    def test_invalidate_cleans_sibling_token_references(self):
        store = RibSnapshotStore()
        store.put(make_rib(), deps=(BASE_WORLD_TOKEN, device_token("A")))
        store.invalidate(BASE_WORLD_TOKEN)
        # the device token no longer references the evicted key
        assert store.invalidate(device_token("A")) == 0

    def test_invalidate_unknown_token_is_noop(self):
        store = RibSnapshotStore()
        store.put(make_rib())
        assert store.invalidate("no-such-token") == 0
        assert len(store) == 1

    def test_untouched_snapshots_survive(self):
        store = RibSnapshotStore()
        store.put(make_rib("A", "10.1.0.0/16"), deps=(device_token("A"),))
        kept = store.put(make_rib("B", "10.2.0.0/16"), deps=(device_token("B"),))
        store.invalidate(device_token("A"))
        assert store.contains(kept)
        assert len(store) == 1


class TestCoversAsPrefixSanity:
    def test_rib_prefix_round_trip(self):
        rib = make_rib()
        assert as_prefix("10.1.0.0/16") in rib.prefixes(GLOBAL_VRF)


class TestBaseSnapshotsOnlyWithABudget:
    """``snapshot_base`` writes to a byte-budgeted store and to no other."""

    @pytest.fixture
    def serialization_calls(self, monkeypatch):
        """Counts pickles and fingerprints made through the store."""
        from repro.distsim import storage
        from repro.incremental import snapshots

        calls = {"pickle": 0, "fingerprint": 0}
        real_dumps = storage.pickle.dumps
        real_fingerprint = snapshots.device_rib_fingerprint

        class CountingPickle:
            HIGHEST_PROTOCOL = storage.pickle.HIGHEST_PROTOCOL
            loads = staticmethod(storage.pickle.loads)

            @staticmethod
            def dumps(*args, **kwargs):
                calls["pickle"] += 1
                return real_dumps(*args, **kwargs)

        def counting_fingerprint(rib):
            calls["fingerprint"] += 1
            return real_fingerprint(rib)

        monkeypatch.setattr(storage, "pickle", CountingPickle)
        monkeypatch.setattr(snapshots, "device_rib_fingerprint", counting_fingerprint)
        return calls

    def engine_with_base(self, store=None, ctx=None):
        from repro.incremental.engine import IncrementalEngine
        from tests.helpers import build_model

        engine = IncrementalEngine(
            build_model([("A", 100), ("B", 100)], []), snapshots=store
        )
        base = {"A": make_rib("A", "10.1.0.0/16"), "B": make_rib("B", "10.2.0.0/16")}
        engine.snapshot_base(base, ctx)
        return engine, base

    def test_unbudgeted_store_serializes_nothing(self, serialization_calls):
        from repro.obs import RunContext

        ctx = RunContext("test")
        engine, base = self.engine_with_base(ctx=ctx)
        stats = engine.snapshots.stats
        assert serialization_calls == {"pickle": 0, "fingerprint": 0}
        assert (stats.put_stores, stats.put_hits) == (0, 0)
        assert len(engine.snapshots) == 0
        assert ctx.counters()["snapshots.deferred"] == 2
        # the reader gets the live object it offers as fallback
        assert engine.base_rib("A", base["A"]) is base["A"]
        assert serialization_calls == {"pickle": 0, "fingerprint": 0}

    def test_resnapshot_leaves_no_stale_base_behind(self):
        engine, first = self.engine_with_base()
        second = {"A": make_rib("A", "10.3.0.0/16")}
        engine.snapshot_base(second)
        assert engine.base_rib("A", second["A"]) is second["A"]
        fallback = DeviceRib("B")
        assert engine.base_rib("B", fallback) is fallback

    def test_budgeted_store_snapshots_as_before(self, serialization_calls):
        from repro.obs import RunContext

        ctx = RunContext("test")
        engine, base = self.engine_with_base(RibSnapshotStore(max_bytes=1 << 20), ctx)
        stats = engine.snapshots.stats
        assert stats.put_stores == 2 and len(engine.snapshots) == 2
        assert serialization_calls == {"pickle": 2, "fingerprint": 2}
        assert engine.snapshots.total_bytes > 0
        assert "snapshots.deferred" not in ctx.counters()
        key = KEY_PREFIX + device_rib_fingerprint(base["A"])
        assert engine.snapshots.contains(key)
        assert engine.base_rib("A", DeviceRib("A")) is base["A"]
        assert stats.get_hits == 1
        # invalidation drops the stored base: the reader falls back
        assert engine.snapshots.invalidate(BASE_WORLD_TOKEN) == 2
        fallback = DeviceRib("A")
        assert engine.base_rib("A", fallback) is fallback


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
