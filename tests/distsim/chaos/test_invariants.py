"""The chaos invariant harness.

Core invariant: any chaos run that *completes* — under injected worker
crashes, message loss/duplication/reordering, storage faults, and slow-worker
timeouts — produces merged RIBs byte-identical to the fault-free centralized
run. A run that instead exhausts its retries must surface dead-letter
entries through :class:`TaskFailed`, never hang or silently return partial
RIBs. Checked across seeds with a thread-pool executor.
"""

import pytest

from repro.distsim import (
    CentralizedRunner,
    ChaosPolicy,
    DistributedRouteSimulation,
    DistributedTrafficSimulation,
    RetryPolicy,
    TaskFailed,
    rib_fingerprint,
)
from repro.workload import (
    WanParams,
    generate_flows,
    generate_input_routes,
    generate_wan,
)

SEEDS = [0, 1, 2, 3, 4]

#: every injection site at this probability satisfies the >=0.2 requirement
PROBABILITY = 0.25


def fast_retry(max_retries: int = 12) -> RetryPolicy:
    return RetryPolicy(
        max_retries=max_retries, backoff_base=0.001, backoff_cap=0.005
    )


@pytest.fixture(scope="module")
def wan():
    model, inventory = generate_wan(WanParams(regions=2, cores_per_region=2, seed=3))
    routes = generate_input_routes(inventory, n_prefixes=30, redundancy=2, seed=5)
    flows = generate_flows(inventory, routes, n_flows=60, seed=9)
    return model, routes, flows


@pytest.fixture(scope="module")
def baseline(wan):
    """Fingerprint of the fault-free centralized run."""
    model, routes, _ = wan
    return rib_fingerprint(CentralizedRunner(model).run(routes).device_ribs)


def run_with_chaos(model, routes, seed):
    policy = ChaosPolicy.uniform(seed=seed, probability=PROBABILITY)
    sim = DistributedRouteSimulation(model, chaos=policy, retry=fast_retry())
    return sim.run(routes, subtasks=5, workers=3)


def assert_invariant(wan, baseline, seed):
    model, routes, _ = wan
    try:
        result = run_with_chaos(model, routes, seed)
    except TaskFailed as exc:
        # Exhausted retries must be *surfaced*: a populated DLQ with
        # reasons, never a silent partial result.
        assert exc.report is not None
        assert exc.report.dead_letters
        for entry in exc.report.dead_letters:
            assert entry.reason
            assert entry.attempts == exc.report.attempts[entry.subtask_id]
    else:
        assert rib_fingerprint(result.device_ribs) == baseline
        report = result.report
        assert report is not None
        assert report.fault_counters, "chaos at p=0.25 must inject something"
        assert not report.dead_letters


class TestCoreInvariant:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_thread_mode(self, wan, baseline, seed):
        assert_invariant(wan, baseline, seed)

    def test_fault_free_distributed_matches_centralized(self, wan, baseline):
        model, routes, _ = wan
        result = DistributedRouteSimulation(model).run(routes, subtasks=5)
        assert rib_fingerprint(result.device_ribs) == baseline


class TestSingleFaultFamilies:
    """Each fault family in isolation, at certainty or near it."""

    def test_duplication_is_idempotent(self, wan, baseline):
        model, routes, _ = wan
        policy = ChaosPolicy(seed=7, message_duplication=1.0)
        sim = DistributedRouteSimulation(model, chaos=policy, retry=fast_retry())
        result = sim.run(routes, subtasks=5, workers=1)
        assert rib_fingerprint(result.device_ribs) == baseline
        assert result.report.fault_counters["mq.duplicate"] >= 5
        assert result.report.duplicate_skips >= 1

    def test_loss_is_recovered_by_redelivery(self, wan, baseline):
        model, routes, _ = wan
        policy = ChaosPolicy(seed=11, message_loss=0.4)
        sim = DistributedRouteSimulation(model, chaos=policy, retry=fast_retry())
        result = sim.run(routes, subtasks=5, workers=2)
        assert rib_fingerprint(result.device_ribs) == baseline
        assert result.report.fault_counters["mq.loss"] >= 1
        assert result.report.retries >= 1

    def test_reordering_does_not_change_results(self, wan, baseline):
        model, routes, _ = wan
        policy = ChaosPolicy(seed=13, message_reorder=1.0)
        sim = DistributedRouteSimulation(model, chaos=policy, retry=fast_retry())
        result = sim.run(routes, subtasks=5, workers=1)
        assert rib_fingerprint(result.device_ribs) == baseline
        assert result.report.fault_counters["mq.reorder"] >= 1

    def test_storage_faults_are_retried(self, wan, baseline):
        model, routes, _ = wan
        policy = ChaosPolicy(
            seed=17, storage_read_fault=0.3, storage_write_fault=0.3
        )
        sim = DistributedRouteSimulation(model, chaos=policy, retry=fast_retry())
        result = sim.run(routes, subtasks=5, workers=2)
        assert rib_fingerprint(result.device_ribs) == baseline
        counters = result.report.fault_counters
        assert counters.get("store.read", 0) + counters.get("store.write", 0) >= 1

    def test_crashes_before_and_after_upload_are_retried(self, wan, baseline):
        model, routes, _ = wan
        policy = ChaosPolicy(
            seed=19, worker_crash_before=0.3, worker_crash_after=0.3
        )
        sim = DistributedRouteSimulation(model, chaos=policy, retry=fast_retry())
        result = sim.run(routes, subtasks=5, workers=2)
        assert rib_fingerprint(result.device_ribs) == baseline
        counters = result.report.fault_counters
        assert (
            counters.get("worker.crash_before", 0)
            + counters.get("worker.crash_after", 0)
            >= 1
        )


class TestRetryExhaustion:
    """Poison subtasks dead-letter instead of hanging or silent partials."""

    def test_certain_crash_dead_letters_every_subtask(self, wan):
        model, routes, _ = wan
        policy = ChaosPolicy(seed=23, worker_crash_before=1.0)
        sim = DistributedRouteSimulation(
            model, chaos=policy, retry=fast_retry(max_retries=3)
        )
        with pytest.raises(TaskFailed) as excinfo:
            sim.run(routes, subtasks=4, workers=2)
        report = excinfo.value.report
        assert report is not None
        assert len(report.dead_letters) == 4
        for entry in report.dead_letters:
            assert entry.attempts == 3
            assert "WorkerCrash" in entry.reason
        # The DB agrees: every record failed with the exhaustion reason.
        for record in sim.db.all(kind="route"):
            assert record.status == "failed"
            assert "retries exhausted" in record.error

    def test_slow_worker_timeouts_dead_letter(self, wan):
        model, routes, _ = wan
        policy = ChaosPolicy(
            seed=29, slow_worker=1.0, slow_worker_delay=0.005,
            slow_worker_timeout=0.001,
        )
        sim = DistributedRouteSimulation(
            model, chaos=policy, retry=fast_retry(max_retries=3)
        )
        with pytest.raises(TaskFailed) as excinfo:
            sim.run(routes, subtasks=3, workers=2)
        for entry in excinfo.value.report.dead_letters:
            assert "SubtaskTimeout" in entry.reason


class TestTrafficChaos:
    def test_traffic_loads_survive_mq_and_crash_faults(self, wan):
        model, routes, flows = wan
        route_sim = DistributedRouteSimulation(model)
        route_sim.run(routes, subtasks=5)

        def traffic(chaos=None):
            sim = DistributedTrafficSimulation(
                model,
                igp=route_sim.igp,
                store=route_sim.store,
                db=route_sim.db,
                chaos=chaos,
                retry=fast_retry(),
            )
            return sim.run(flows, subtasks=4, workers=2)

        clean = traffic()
        policy = ChaosPolicy(
            seed=31,
            message_loss=0.25,
            message_duplication=0.25,
            worker_crash_before=0.25,
        )
        chaotic = traffic(chaos=policy)
        assert chaotic.loads.loads == clean.loads.loads
        assert chaotic.paths == clean.paths
        assert chaotic.report.fault_counters
