"""Unit tests for the deterministic chaos engine and its fault wrappers."""

import pytest

from repro.distsim import Message, ObjectStore, StorageFault
from repro.distsim.chaos import (
    SITES,
    ChaosEngine,
    ChaosMessageQueue,
    ChaosObjectStore,
    ChaosPolicy,
    SubtaskTimeout,
    WorkerCrash,
)


class TestChaosPolicy:
    def test_defaults_inject_nothing(self):
        assert not ChaosPolicy(seed=1).enabled()

    def test_uniform_sets_every_site(self):
        policy = ChaosPolicy.uniform(seed=3, probability=0.4)
        for attr in SITES.values():
            assert getattr(policy, attr) == 0.4
        assert policy.enabled()

    def test_uniform_overrides(self):
        policy = ChaosPolicy.uniform(seed=3, probability=0.4, message_loss=0.0)
        assert policy.message_loss == 0.0
        assert policy.worker_crash_before == 0.4

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            ChaosPolicy(seed=1, message_loss=1.5)
        with pytest.raises(ValueError, match="probability"):
            ChaosPolicy(seed=1, storage_read_fault=-0.1)

    def test_policy_is_picklable(self):
        import pickle

        policy = ChaosPolicy.uniform(seed=9, probability=0.2)
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestDeterministicDecisions:
    def test_same_seed_same_decisions(self):
        policy = ChaosPolicy.uniform(seed=42, probability=0.5)
        a, b = ChaosEngine(policy), ChaosEngine(policy)
        keys = [f"task-{i}#{attempt}" for i in range(20) for attempt in (1, 2)]
        for site in SITES:
            assert [a.decide(site, k) for k in keys] == [
                b.decide(site, k) for k in keys
            ]

    def test_different_seed_different_decisions(self):
        keys = [f"task-{i}#1" for i in range(64)]
        rolls = {
            seed: tuple(
                ChaosEngine(ChaosPolicy.uniform(seed=seed, probability=0.5)).decide(
                    "mq.loss", k
                )
                for k in keys
            )
            for seed in (1, 2)
        }
        assert rolls[1] != rolls[2]

    def test_sites_are_independent(self):
        engine = ChaosEngine(ChaosPolicy.uniform(seed=7, probability=0.5))
        keys = [f"t#{i}" for i in range(64)]
        loss = [engine.decide("mq.loss", k) for k in keys]
        crash = [engine.decide("worker.crash_before", k) for k in keys]
        assert loss != crash

    def test_probability_extremes(self):
        always = ChaosEngine(ChaosPolicy.uniform(seed=1, probability=1.0))
        never = ChaosEngine(ChaosPolicy.uniform(seed=1, probability=0.0))
        assert always.decide("mq.loss", "x")
        assert not never.decide("mq.loss", "x")

    def test_counters_track_fired_faults(self):
        engine = ChaosEngine(ChaosPolicy.uniform(seed=1, probability=1.0))
        engine.decide("mq.loss", "a")
        engine.decide("mq.loss", "b")
        engine.decide("store.read", "c")
        assert engine.counters() == {"mq.loss": 2, "store.read": 1}

    def test_pick_in_range_and_deterministic(self):
        policy = ChaosPolicy.uniform(seed=5, probability=1.0)
        a, b = ChaosEngine(policy), ChaosEngine(policy)
        for n in (1, 2, 7):
            for key in ("1", "2", "3"):
                index = a.pick("mq.reorder", key, n)
                assert 0 <= index < n
                assert index == b.pick("mq.reorder", key, n)


class TestWorkerInjectionPoints:
    def test_crash_point_raises(self):
        engine = ChaosEngine(ChaosPolicy.uniform(seed=1, probability=1.0))
        with pytest.raises(WorkerCrash, match="crash_before.*task-a.*attempt 2"):
            engine.crash_point("worker.crash_before", Message("task-a", "route", attempt=2))

    def test_crash_point_silent_at_zero(self):
        engine = ChaosEngine(ChaosPolicy(seed=1))
        engine.crash_point("worker.crash_before", Message("task-a", "route"))

    def test_slow_worker_trips_watchdog(self):
        policy = ChaosPolicy(
            seed=1, slow_worker=1.0, slow_worker_delay=0.002,
            slow_worker_timeout=0.001,
        )
        with pytest.raises(SubtaskTimeout, match="watchdog"):
            ChaosEngine(policy).maybe_slow(Message("t", "route"))

    def test_slow_worker_without_timeout_only_sleeps(self):
        policy = ChaosPolicy(
            seed=1, slow_worker=1.0, slow_worker_delay=0.001,
            slow_worker_timeout=None,
        )
        ChaosEngine(policy).maybe_slow(Message("t", "route"))  # must not raise


class TestChaosMessageQueue:
    def test_loss_drops_messages(self):
        engine = ChaosEngine(ChaosPolicy(seed=1, message_loss=1.0))
        mq = ChaosMessageQueue(engine)
        mq.push(Message("a", "route"))
        assert mq.pop() is None
        assert engine.counters()["mq.loss"] == 1

    def test_duplication_delivers_twice(self):
        engine = ChaosEngine(ChaosPolicy(seed=1, message_duplication=1.0))
        mq = ChaosMessageQueue(engine)
        mq.push(Message("a", "route"))
        assert len(mq) == 2
        assert mq.pop().subtask_id == "a"
        assert mq.pop().subtask_id == "a"
        assert mq.pop() is None

    def test_reorder_is_a_permutation_and_replayable(self):
        def drain(seed):
            engine = ChaosEngine(ChaosPolicy(seed=seed, message_reorder=1.0))
            mq = ChaosMessageQueue(engine)
            for name in "abcdefgh":
                mq.push(Message(name, "route"))
            order = []
            while (message := mq.pop()) is not None:
                order.append(message.subtask_id)
            return order

        first, second = drain(13), drain(13)
        assert first == second  # same seed -> exact same delivery order
        assert sorted(first) == list("abcdefgh")  # nothing lost or duplicated

    def test_clean_policy_is_plain_fifo(self):
        engine = ChaosEngine(ChaosPolicy(seed=1))
        mq = ChaosMessageQueue(engine)
        mq.push(Message("a", "route"))
        mq.push(Message("b", "route"))
        assert [mq.pop().subtask_id, mq.pop().subtask_id] == ["a", "b"]


class TestChaosObjectStore:
    def test_read_fault_raises_and_counts(self):
        base = ObjectStore()
        base.put("k", 1)
        engine = ChaosEngine(ChaosPolicy(seed=1, storage_read_fault=1.0))
        store = ChaosObjectStore(base, engine)
        with pytest.raises(StorageFault, match="read fault on 'k'"):
            store.get("k")
        assert engine.counters()["store.read"] == 1

    def test_write_fault_leaves_base_untouched(self):
        base = ObjectStore()
        engine = ChaosEngine(ChaosPolicy(seed=1, storage_write_fault=1.0))
        store = ChaosObjectStore(base, engine)
        with pytest.raises(StorageFault, match="write fault"):
            store.put("k", 1)
        assert len(base) == 0

    def test_clean_policy_delegates(self):
        base = ObjectStore()
        store = ChaosObjectStore(base, ChaosEngine(ChaosPolicy(seed=1)))
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}
        assert store.exists("k") and not store.exists("ghost")
        assert store.keys() == ["k"]
        assert len(store) == 1
        assert store.stats.writes == 1

    def test_faults_keyed_per_attempt_context(self):
        """A fault on attempt 1 must not deterministically repeat forever:
        the decision key includes the worker's (subtask, attempt) context."""
        policy = ChaosPolicy(seed=101, storage_read_fault=0.5)
        outcomes = {}
        for attempt in (1, 2, 3, 4):
            engine = ChaosEngine(policy)
            engine.enter(Message("task-a", "route", attempt=attempt))
            store = ChaosObjectStore(ObjectStore(), engine)
            store.base.put("k", 1)
            try:
                store.get("k")
                outcomes[attempt] = "ok"
            except StorageFault:
                outcomes[attempt] = "fault"
        assert set(outcomes.values()) == {"ok", "fault"}
