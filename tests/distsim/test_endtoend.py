"""End-to-end tests for the distributed framework: correctness vs the
centralized runner, dependency reduction, retry, EC ablation."""

import pytest

from repro import perfopts
from repro.distsim import (
    CentralizedRunner,
    DistributedRouteSimulation,
    DistributedTrafficSimulation,
    MemoryExhausted,
    OrderingPartitioner,
    RandomPartitioner,
    RetryPolicy,
)
from repro.distsim.taskdb import FINISHED
from repro.distsim.master import TaskFailed
from repro.distsim.worker import WorkerConfig
from repro.net.addr import Prefix
from repro.routing.simulator import simulate_routes
from repro.workload import WanParams, generate_wan, generate_input_routes, generate_flows


@pytest.fixture(scope="module")
def wan():
    model, inventory = generate_wan(WanParams(regions=2, cores_per_region=2, seed=3))
    routes = generate_input_routes(inventory, n_prefixes=40, redundancy=2, seed=5)
    flows = generate_flows(inventory, routes, n_flows=120, seed=9)
    return model, inventory, routes, flows


def loopback_free(rib, model):
    loops = {Prefix.from_address(lb) for lb in model.loopbacks.values()}
    return {
        row.identity() for row in rib if row.route.prefix not in loops
    }


class TestRouteSimulationCorrectness:
    def test_distributed_equals_monolithic(self, wan):
        model, inventory, routes, _ = wan
        mono = simulate_routes(model, routes, include_local_inputs=False)
        dist = DistributedRouteSimulation(model).run(routes, subtasks=6)
        assert loopback_free(dist.global_rib(best_only=True), model) == loopback_free(
            mono.global_rib(best_only=True), model
        )

    def test_subtask_count_does_not_change_results(self, wan):
        model, _, routes, _ = wan
        a = DistributedRouteSimulation(model).run(routes, subtasks=3)
        b = DistributedRouteSimulation(model).run(routes, subtasks=10)
        assert a.global_rib(best_only=True) == b.global_rib(best_only=True)

    def test_ec_ablation_same_results(self, wan):
        model, _, routes, _ = wan
        with_ecs = DistributedRouteSimulation(model).run(routes, subtasks=4)
        with perfopts.configured(route_ecs=False):
            without = DistributedRouteSimulation(model).run(routes, subtasks=4)
        assert with_ecs.global_rib(best_only=True) == without.global_rib(
            best_only=True
        )

    def test_random_partition_same_results(self, wan):
        model, _, routes, _ = wan
        ordering = DistributedRouteSimulation(model).run(routes, subtasks=4)
        shuffled = DistributedRouteSimulation(model).run(
            routes, subtasks=4, partitioner=RandomPartitioner(seed=2)
        )
        assert ordering.global_rib(best_only=True) == shuffled.global_rib(
            best_only=True
        )

    def test_threaded_workers_same_results(self, wan):
        model, _, routes, _ = wan
        serial = DistributedRouteSimulation(model).run(routes, subtasks=6, workers=1)
        threaded = DistributedRouteSimulation(model).run(
            routes, subtasks=6, workers=4
        )
        assert serial.global_rib(best_only=True) == threaded.global_rib(
            best_only=True
        )

    def test_durations_recorded(self, wan):
        model, _, routes, _ = wan
        result = DistributedRouteSimulation(model).run(routes, subtasks=5)
        assert len(result.subtask_durations) == 5
        assert all(d > 0 for d in result.subtask_durations)
        assert result.makespan(1) >= result.makespan(10)


class TestTrafficSimulation:
    def run_both(self, wan, traffic_config=None, partitioner=None):
        model, inventory, routes, flows = wan
        route_sim = DistributedRouteSimulation(model)
        route_sim.run(routes, subtasks=6)
        traffic_sim = DistributedTrafficSimulation(
            model,
            igp=route_sim.igp,
            store=route_sim.store,
            db=route_sim.db,
            worker_config=traffic_config or WorkerConfig(),
        )
        return traffic_sim.run(
            flows, subtasks=6, partitioner=partitioner or OrderingPartitioner()
        )

    def test_ordering_loads_fewer_rib_files(self, wan):
        ordered = self.run_both(wan)
        random_split = self.run_both(wan, partitioner=RandomPartitioner(seed=4))
        assert ordered.loaded_rib_fractions and random_split.loaded_rib_fractions
        assert max(ordered.loaded_rib_fractions) <= 1.0
        # The ordering heuristic loads strictly fewer files on average.
        avg_ordered = sum(ordered.loaded_rib_fractions) / len(
            ordered.loaded_rib_fractions
        )
        avg_random = sum(random_split.loaded_rib_fractions) / len(
            random_split.loaded_rib_fractions
        )
        assert avg_ordered < avg_random
        # Random-split subtasks depend on (almost) all RIB files.
        assert avg_random > 0.9

    def test_ordering_and_baseline_loads_agree(self, wan):
        """Dependency reduction must not change the computed link loads."""
        ordered = self.run_both(wan)
        baseline = self.run_both(
            wan, traffic_config=WorkerConfig(load_all_ribs=True)
        )
        keys = set(ordered.loads.loads) | set(baseline.loads.loads)
        for key in keys:
            assert ordered.loads.loads.get(key, 0.0) == pytest.approx(
                baseline.loads.loads.get(key, 0.0), rel=1e-9
            )

    def test_flow_ec_ablation_loads_agree(self, wan):
        with_ecs = self.run_both(wan)
        without = self.run_both(wan, traffic_config=WorkerConfig(use_flow_ecs=False))
        for key in set(with_ecs.loads.loads) | set(without.loads.loads):
            assert with_ecs.loads.loads.get(key, 0.0) == pytest.approx(
                without.loads.loads.get(key, 0.0), rel=1e-9
            )

    def test_loads_positive_and_paths_present(self, wan):
        result = self.run_both(wan)
        assert result.loads.total() > 0
        assert result.paths


class TestFailureHandling:
    def test_transient_failure_retried(self, wan):
        model, _, routes, _ = wan
        failed_once = set()

        def fail_first(message):
            if message.subtask_id not in failed_once:
                failed_once.add(message.subtask_id)
                return True
            return False

        sim = DistributedRouteSimulation(
            model, worker_config=WorkerConfig(failure_hook=fail_first)
        )
        result = sim.run(routes, subtasks=4)
        records = result.db.all(kind="route")
        assert all(r.status == FINISHED for r in records)
        assert all(r.attempts == 2 for r in records)

    def test_permanent_failure_raises(self, wan):
        model, _, routes, _ = wan
        sim = DistributedRouteSimulation(
            model,
            worker_config=WorkerConfig(failure_hook=lambda m: True),
            retry=RetryPolicy(max_retries=2),
        )
        with pytest.raises(TaskFailed):
            sim.run(routes, subtasks=3)


class TestCentralized:
    def test_centralized_matches_distributed(self, wan):
        model, _, routes, _ = wan
        central = CentralizedRunner(model).run(routes)
        dist = DistributedRouteSimulation(model).run(routes, subtasks=5)
        from repro.routing.rib import GlobalRib

        central_rib = GlobalRib.from_device_ribs(central.device_ribs.values())
        assert loopback_free(
            central_rib.best_routes(), model
        ) == loopback_free(dist.global_rib(best_only=True), model)

    def test_memory_budget_exhaustion(self, wan):
        model, _, routes, _ = wan
        with pytest.raises(MemoryExhausted) as excinfo:
            CentralizedRunner(model, memory_limit_rows=50, chunk_size=8).run(routes)
        assert 0 < excinfo.value.completed_fraction < 1.0

    def test_generous_budget_completes(self, wan):
        model, _, routes, _ = wan
        result = CentralizedRunner(model, memory_limit_rows=10**9).run(routes)
        assert result.completed_fraction == 1.0
        assert result.rib_rows > 0


class TestThreadedStress:
    def test_threaded_workers_with_transient_failures(self, wan):
        """Retry and thread-pool execution compose: every subtask's first
        attempt fails, workers race on the MQ/DB/store, results still match
        the serial run."""
        import threading

        model, _, routes, _ = wan
        lock = threading.Lock()
        failed_once = set()

        def fail_first(message):
            with lock:
                if message.subtask_id not in failed_once:
                    failed_once.add(message.subtask_id)
                    return True
            return False

        stressed = DistributedRouteSimulation(
            model, worker_config=WorkerConfig(failure_hook=fail_first)
        ).run(routes, subtasks=8, workers=4)
        clean = DistributedRouteSimulation(model).run(routes, subtasks=8)
        assert stressed.global_rib(best_only=True) == clean.global_rib(
            best_only=True
        )
        records = stressed.db.all(kind="route")
        assert all(r.status == FINISHED for r in records)
        assert all(r.attempts == 2 for r in records)

    def test_store_consistent_after_threaded_run(self, wan):
        model, _, routes, _ = wan
        sim = DistributedRouteSimulation(model)
        sim.run(routes, subtasks=8, workers=4)
        # Every registered subtask has exactly one input and one result
        # object in the store.
        inputs = [k for k in sim.store.keys() if k.endswith("/input")]
        results = [k for k in sim.store.keys() if k.endswith("/result")]
        assert len(inputs) == len(results) == 8
