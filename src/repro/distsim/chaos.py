"""Deterministic chaos engine for the distributed simulation framework.

The distributed framework of §3.2 only earns its scalability story if it
survives the failures a real cluster throws at it: worker crashes before and
after result upload, lost/duplicated/reordered MQ messages, storage faults,
and slow workers tripping watchdog timeouts. This module injects exactly
those faults — *deterministically*.

Every injection decision is a pure function of ``(policy.seed, site, key)``,
where ``key`` names the event (usually ``subtask_id#attempt`` plus a
per-event sequence number). No global RNG stream is consumed, so decisions
do not depend on thread scheduling: the same seed injects the same faults
whether subtasks run serially or in a thread pool, and a failing seed
can be replayed exactly.

Components:

* :class:`ChaosPolicy` — per-site probabilities plus the seed; the whole
  configuration of a chaos run.
* :class:`ChaosEngine` — decides injections and counts every fault fired.
* :class:`ChaosMessageQueue` — an MQ that loses, duplicates, and reorders.
* :class:`ChaosObjectStore` — a worker-facing store view that throws
  :class:`~repro.distsim.storage.StorageFault` on reads/writes.
* :func:`rib_fingerprint` — canonical digest of merged device RIBs, used by
  the invariant harness to assert byte-identical results across runs.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.distsim.mq import Message, MessageQueue
from repro.distsim.storage import ObjectStore, StorageFault


class WorkerCrash(RuntimeError):
    """An injected worker crash (before or after result upload)."""


class SubtaskTimeout(RuntimeError):
    """An injected slow worker exceeded the watchdog timeout."""


#: injection site -> ChaosPolicy probability field
SITES = {
    "mq.loss": "message_loss",
    "mq.duplicate": "message_duplication",
    "mq.reorder": "message_reorder",
    "store.read": "storage_read_fault",
    "store.write": "storage_write_fault",
    "worker.crash_before": "worker_crash_before",
    "worker.crash_after": "worker_crash_after",
    "worker.slow": "slow_worker",
}


@dataclass(frozen=True)
class ChaosPolicy:
    """Per-site fault probabilities driven by a single seed.

    The policy is a plain frozen dataclass; because decisions are keyed,
    not stream-based, an engine rebuilt from it injects exactly the same
    faults.
    """

    seed: int = 0
    worker_crash_before: float = 0.0
    worker_crash_after: float = 0.0
    message_loss: float = 0.0
    message_duplication: float = 0.0
    message_reorder: float = 0.0
    storage_read_fault: float = 0.0
    storage_write_fault: float = 0.0
    slow_worker: float = 0.0
    #: injected delay for a slow worker, seconds
    slow_worker_delay: float = 0.02
    #: watchdog limit; a slow worker whose delay reaches it fails the
    #: attempt with SubtaskTimeout (None = sleep only, never time out)
    slow_worker_timeout: Optional[float] = 0.01

    def __post_init__(self) -> None:
        for attr in SITES.values():
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attr} must be a probability in [0, 1], got {value}")

    @classmethod
    def uniform(cls, seed: int, probability: float, **overrides: Any) -> "ChaosPolicy":
        """A policy injecting every fault site at the same probability."""
        values: Dict[str, Any] = {attr: probability for attr in SITES.values()}
        values.update(overrides)
        return cls(seed=seed, **values)

    def enabled(self) -> bool:
        return any(getattr(self, attr) > 0.0 for attr in SITES.values())


class ChaosEngine:
    """Keyed fault decisions plus thread-safe per-site counters."""

    def __init__(self, policy: ChaosPolicy) -> None:
        self.policy = policy
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._sequences: Dict[str, int] = {}
        self._local = threading.local()

    # -- deterministic decisions ------------------------------------------------

    def _roll(self, site: str, key: str) -> float:
        # random.Random seeds strings through SHA-512, independent of
        # PYTHONHASHSEED — the roll depends only on (seed, site, key).
        return random.Random(f"{self.policy.seed}|{site}|{key}").random()

    def decide(self, site: str, key: str) -> bool:
        """Should the fault at ``site`` fire for event ``key``? Counts hits."""
        probability = getattr(self.policy, SITES[site])
        if probability <= 0.0:
            return False
        if probability < 1.0 and self._roll(site, key) >= probability:
            return False
        self.count(site)
        return True

    def pick(self, site: str, key: str, n: int) -> int:
        """A deterministic index in ``[0, n)`` for reordering decisions."""
        return int(self._roll(site + ".pick", key) * n) % max(1, n)

    def next_seq(self, name: str) -> int:
        """Monotonic per-name event counter (keys repeated events apart)."""
        with self._lock:
            value = self._sequences.get(name, 0) + 1
            self._sequences[name] = value
        return value

    # -- per-attempt context ----------------------------------------------------
    #
    # Store faults must distinguish retries of the same subtask (otherwise a
    # faulting read would fault on every retry and no run could ever
    # complete). Workers bracket each attempt with enter/exit; the context
    # string joins every storage decision key.

    def enter(self, message: Message) -> None:
        self._local.context = f"{message.subtask_id}#{message.attempt}"

    def exit(self) -> None:
        self._local.context = None

    @property
    def context(self) -> str:
        return getattr(self._local, "context", None) or "master"

    # -- worker-side injection points -------------------------------------------

    def crash_point(self, site: str, message: Message) -> None:
        """Raise :class:`WorkerCrash` when the keyed decision fires."""
        if self.decide(site, f"{message.subtask_id}#{message.attempt}"):
            raise WorkerCrash(
                f"injected {site} on {message.subtask_id} "
                f"(attempt {message.attempt})"
            )

    def maybe_slow(self, message: Message) -> None:
        """Inject a slow worker; trips the watchdog when configured."""
        if not self.decide("worker.slow", f"{message.subtask_id}#{message.attempt}"):
            return
        delay = self.policy.slow_worker_delay
        timeout = self.policy.slow_worker_timeout
        if timeout is not None and delay >= timeout:
            time.sleep(timeout)
            raise SubtaskTimeout(
                f"{message.subtask_id} exceeded the {timeout:g}s watchdog "
                f"(attempt {message.attempt})"
            )
        time.sleep(delay)

    # -- counters ----------------------------------------------------------------

    def count(self, site: str, n: int = 1) -> None:
        with self._lock:
            self._counters[site] = self._counters.get(site, 0) + n

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)


class ChaosMessageQueue(MessageQueue):
    """A FIFO queue that loses, duplicates, and reorders deliveries."""

    def __init__(self, engine: ChaosEngine) -> None:
        super().__init__()
        self.engine = engine
        self._pop_seq = 0

    def push(self, message: Message) -> None:
        key = f"{message.subtask_id}#{message.attempt}"
        if self.engine.decide("mq.loss", key):
            return
        super().push(message)
        if self.engine.decide("mq.duplicate", key):
            super().push(message)

    def pop(self) -> Optional[Message]:
        with self._lock:
            if not self._queue:
                return None
            self._pop_seq += 1
            index = 0
            if len(self._queue) > 1 and self.engine.decide(
                "mq.reorder", str(self._pop_seq)
            ):
                index = self.engine.pick(
                    "mq.reorder", str(self._pop_seq), len(self._queue)
                )
            if index:
                self._queue.rotate(-index)
                message = self._queue.popleft()
                self._queue.rotate(index)
            else:
                message = self._queue.popleft()
            self.consumed += 1
            return message


class ChaosObjectStore:
    """Worker-facing view of an :class:`ObjectStore` with injected faults.

    Reads and writes delegate to the wrapped store; before each, a keyed
    decision may raise :class:`StorageFault`. Keys combine the object key,
    the engine's per-attempt context, and a sequence number, so a transient
    fault does not repeat forever across retries. The master keeps using the
    unwrapped store — dispatch and result merging are not fault targets.
    """

    def __init__(self, base: ObjectStore, engine: ChaosEngine) -> None:
        self.base = base
        self.engine = engine

    # -- fault points ------------------------------------------------------------

    def _maybe_fault(self, site: str, key: str) -> None:
        scope = f"{key}@{self.engine.context}"
        n = self.engine.next_seq(f"{site}:{scope}")
        if self.engine.decide(site, f"{scope}#{n}"):
            verb = "read" if site == "store.read" else "write"
            raise StorageFault(
                f"injected {verb} fault on {key!r} "
                f"({self.engine.context}, {verb} {n})"
            )

    # -- ObjectStore API ---------------------------------------------------------

    def put(self, key: str, value: Any) -> int:
        self._maybe_fault("store.write", key)
        return self.base.put(key, value)

    def get(self, key: str) -> Any:
        self._maybe_fault("store.read", key)
        return self.base.get(key)

    def exists(self, key: str) -> bool:
        return self.base.exists(key)

    def size_of(self, key: str) -> int:
        return self.base.size_of(key)

    def keys(self, prefix: str = ""):
        return self.base.keys(prefix)

    def delete(self, key: str) -> None:
        self.base.delete(key)

    @property
    def stats(self):
        return self.base.stats

    def __len__(self) -> int:
        return len(self.base)


def rib_fingerprint(device_ribs: Dict[str, Any]) -> bytes:
    """Canonical byte digest of merged device RIBs.

    Row order is merge-order dependent (threads race on the MQ), so rows are
    canonically sorted before hashing; the digest is then byte-identical
    exactly when the merged RIB *contents* are.
    """
    rows = sorted(
        repr(row.identity())
        for rib in device_ribs.values()
        for row in rib.all_rows()
    )
    digest = hashlib.sha256()
    for row in rows:
        digest.update(row.encode())
        digest.update(b"\n")
    return digest.digest()


__all__ = [
    "ChaosEngine",
    "ChaosMessageQueue",
    "ChaosObjectStore",
    "ChaosPolicy",
    "SITES",
    "SubtaskTimeout",
    "WorkerCrash",
    "rib_fingerprint",
]
