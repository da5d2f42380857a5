"""The master server (Figure 3): split, dispatch, monitor, retry, merge.

The master prepares subtasks by partitioning the inputs, uploads each
subtask's input as a separate store object, pushes one message per subtask
onto the MQ, and processes them with a pool of workers. When the DB reports
a failed subtask, its message is resent (bounded retries). After all
subtasks finish, results are collected and merged.

Execution modes:

* ``run(workers=N)`` — real thread pool of N workers draining the MQ.
* ``run(workers=1)`` then :func:`makespan` — serial execution measuring each
  subtask's true duration, from which the list-scheduling model reports the
  end-to-end time for *any* server count (how the Figure 5(a)/(b) curves are
  produced without ten physical servers).
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.distsim.chaos import ChaosEngine, ChaosMessageQueue, ChaosObjectStore, ChaosPolicy
from repro.distsim.mq import DeadLetter, DeadLetterQueue, Message, MessageQueue
from repro.distsim.partition import OrderingPartitioner, ranges_of_prefixes
from repro.distsim.storage import ObjectStore
from repro.distsim.taskdb import FINISHED, SubtaskDB, SubtaskRecord
from repro.distsim.worker import Worker, WorkerConfig, merge_device_ribs
from repro.net.model import NetworkModel
from repro.obs import RunContext, ensure_context
from repro.routing.inputs import InputRoute
from repro.routing.isis import IgpState, compute_igp
from repro.routing.rib import DeviceRib, WithGlobalRib
from repro.traffic.flow import Flow
from repro.traffic.load import LinkLoadMap


class TaskFailed(RuntimeError):
    """A subtask exhausted its retries.

    Carries the :class:`RunReport` (when available) so callers can inspect
    the dead-letter queue and fault counters of the failed run instead of
    receiving partial results silently.
    """

    def __init__(self, message: str, report: Optional["RunReport"] = None) -> None:
        super().__init__(message)
        self.report = report


@dataclass
class RetryPolicy:
    """Retry budget and capped exponential backoff for failed subtasks.

    ``max_retries`` bounds the *total* attempts per subtask. The delay before
    attempt ``n`` is ``backoff_base * 2**(n-2)`` capped at ``backoff_cap``;
    ``sleep`` is injectable so tests can run without real waiting.
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    sleep: Callable[[float], None] = time.sleep

    def backoff_delay(self, attempt: int) -> float:
        if attempt <= 1:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 2)))


@dataclass
class RunReport:
    """Recovery telemetry for one distributed run.

    Returned on every result (and attached to :class:`TaskFailed`), so both
    completed and dead-lettered runs expose how many retries fired, how long
    backoff slept, which subtasks were poisoned, and — under chaos — how
    many faults each injection site produced.

    ``rounds``/``retries``/``backoff_seconds`` are views derived from the
    run's observability counters (``distsim.rounds`` etc. on the drain
    span), filled in when the drain finishes rather than hand-maintained.
    """

    seed: Optional[int] = None
    rounds: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    #: final attempt count per subtask id
    attempts: Dict[str, int] = field(default_factory=dict)
    dead_letters: List[DeadLetter] = field(default_factory=list)
    #: injected-fault counts per chaos site (empty without a chaos policy)
    fault_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def duplicate_skips(self) -> int:
        return self.fault_counters.get("worker.duplicate_skip", 0)

    def max_attempts(self) -> int:
        return max(self.attempts.values(), default=0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "attempts": dict(self.attempts),
            "dead_letters": [entry.to_dict() for entry in self.dead_letters],
            "fault_counters": dict(self.fault_counters),
        }


def makespan(durations: Sequence[float], servers: int) -> float:
    """End-to-end time for subtasks consumed in order by ``servers`` workers.

    Models MQ consumption: each message goes to the earliest-free server.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if not durations:
        return 0.0
    # Min-heap of server free times: each message goes to the minimum,
    # O(n log s) instead of the O(n*s) linear scan per message. A list of
    # zeros is already a valid heap.
    free_at = [0.0] * servers
    for duration in durations:
        heapq.heapreplace(free_at, free_at[0] + duration)
    return max(free_at)


@dataclass
class RouteTaskResult(WithGlobalRib):
    """Merged output of a distributed route simulation."""

    device_ribs: Dict[str, DeviceRib]
    db: SubtaskDB
    store: ObjectStore
    subtask_durations: List[float]
    elapsed_seconds: float
    report: Optional[RunReport] = None
    #: partitions that held no work and were never dispatched (incremental
    #: verification leaves most chunks empty after blast-radius filtering)
    skipped_subtasks: int = 0

    def makespan(self, servers: int) -> float:
        return makespan(self.subtask_durations, servers)


@dataclass
class TrafficTaskResult:
    """Merged output of a distributed traffic simulation."""

    loads: LinkLoadMap
    paths: Dict
    db: SubtaskDB
    store: ObjectStore
    subtask_durations: List[float]
    elapsed_seconds: float
    report: Optional[RunReport] = None

    def makespan(self, servers: int) -> float:
        return makespan(self.subtask_durations, servers)

    @property
    def loaded_rib_fractions(self) -> List[float]:
        """Per traffic subtask: fraction of RIB files loaded (Figure 5(d))."""
        total = len([r for r in self.db.all(kind="route") if r.result_key])
        if total == 0:
            return []
        return [
            record.loaded_rib_files / total
            for record in self.db.all(kind="traffic")
            if record.status == FINISHED
        ]


class _TaskRunner:
    """Shared dispatch/monitor/retry loop."""

    def __init__(
        self,
        model: NetworkModel,
        igp: Optional[IgpState] = None,
        store: Optional[ObjectStore] = None,
        db: Optional[SubtaskDB] = None,
        worker_config: Optional[WorkerConfig] = None,
        chaos: Optional[ChaosPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        max_rounds: int = 50,
    ) -> None:
        self.model = model
        #: the BGP round cap of every route subtask's fixpoint
        self.max_rounds = max_rounds
        self.igp = igp if igp is not None else compute_igp(model)
        self.store = store if store is not None else ObjectStore()
        self.db = db if db is not None else SubtaskDB()
        self.worker_config = worker_config or WorkerConfig()
        self.retry_policy = retry if retry is not None else RetryPolicy()
        self.chaos_policy = chaos
        self.chaos = ChaosEngine(chaos) if chaos is not None else None
        self.mq = ChaosMessageQueue(self.chaos) if self.chaos else MessageQueue()
        self.dlq = DeadLetterQueue()

    # -- supervised drain ------------------------------------------------------

    def _drain(
        self,
        workers: int,
        messages: Dict[str, Message],
        ctx: Optional[RunContext] = None,
    ) -> RunReport:
        """Run subtasks until each is finished or dead-lettered.

        Worker threads drain the queue; between rounds the master inspects
        the DB and re-pushes every subtask that is neither finished nor
        dead-lettered — covering worker failures *and* messages lost before
        any worker saw them. Retries obey the retry policy's
        capped exponential backoff; poison subtasks land in the DLQ with the
        last failure reason, and the run raises :class:`TaskFailed` rather
        than silently returning partial results.
        """
        ctx = ensure_context(ctx)
        self.dlq = DeadLetterQueue()
        report = RunReport(
            seed=self.chaos_policy.seed if self.chaos_policy is not None else None
        )
        with ctx.span("drain") as span:
            self._drain_threads(workers, messages, report, ctx)

            # The recovery telemetry is a view over the drain span's
            # counters, not independently-maintained state.
            report.rounds = int(span.total("distsim.rounds"))
            report.retries = int(span.total("distsim.retries"))
            report.backoff_seconds = span.total("distsim.backoff_seconds")
            for subtask_id, message in messages.items():
                report.attempts[subtask_id] = message.attempt
            report.dead_letters = self.dlq.entries()
            if self.chaos is not None:
                report.fault_counters = self.chaos.counters()
                for site, hits in report.fault_counters.items():
                    ctx.count(f"chaos.{site}", hits)

            failed = [r for r in self.db.failed() if r.subtask_id in messages]
            if failed:
                details = "; ".join(f"{r.subtask_id}: {r.error}" for r in failed[:5])
                ctx.event(
                    "distsim.task_failed", level=30,
                    failed=len(failed), dead_letters=len(report.dead_letters),
                )
                raise TaskFailed(
                    f"{len(failed)} subtasks failed permanently ({details})",
                    report=report,
                )
        return report

    def _supervise(
        self, messages: Dict[str, Message], report: RunReport, ctx: RunContext
    ) -> bool:
        """Re-dispatch unfinished subtasks; returns True while work remains."""
        to_retry: List[str] = []
        for subtask_id, message in messages.items():
            if self.dlq.contains(subtask_id):
                continue
            record = self.db.get(subtask_id)
            if record.status == FINISHED:
                continue
            if message.attempt >= self.retry_policy.max_retries:
                reason = record.error or (
                    "message lost in transit before any attempt ran"
                )
                self.dlq.add(message, reason=reason)
                self.db.mark_failed(
                    subtask_id,
                    message.kind,
                    f"retries exhausted after {message.attempt} attempts: {reason}",
                    attempts=message.attempt,
                )
                ctx.event(
                    "distsim.dead_letter", level=30,
                    subtask=subtask_id, attempts=message.attempt, reason=reason,
                )
                continue
            to_retry.append(subtask_id)
        if not to_retry:
            return False
        delay = max(
            self.retry_policy.backoff_delay(messages[i].attempt + 1)
            for i in to_retry
        )
        if delay > 0:
            self.retry_policy.sleep(delay)
            ctx.count("distsim.backoff_seconds", delay)
        for subtask_id in to_retry:
            retried = messages[subtask_id].retry()
            messages[subtask_id] = retried
            ctx.count("distsim.retries")
            ctx.event(
                "distsim.retry", level=10,
                subtask=subtask_id, attempt=retried.attempt,
            )
            self.mq.push(retried)  # a chaos MQ may lose this push too
        return True

    def _drain_threads(
        self,
        workers: int,
        messages: Dict[str, Message],
        report: RunReport,
        ctx: RunContext,
    ) -> None:
        worker_store = (
            ChaosObjectStore(self.store, self.chaos) if self.chaos else self.store
        )
        pool = [
            Worker(
                f"worker-{index}",
                self.model,
                self.igp,
                worker_store,
                self.db,
                self.worker_config,
                chaos=self.chaos,
                ctx=ctx,
                max_rounds=self.max_rounds,
            )
            for index in range(max(1, workers))
        ]

        def loop(worker: Worker) -> None:
            while True:
                message = self.mq.pop()
                if message is None:
                    return
                try:
                    worker.handle(message)
                except Exception as exc:  # noqa: BLE001 - never lose a failure
                    # handle() records its own failures; this guards
                    # crashes outside it so a worker thread can't die
                    # silently.
                    self.db.mark_failed(
                        message.subtask_id,
                        message.kind,
                        f"worker loop error: {type(exc).__name__}: {exc}",
                        attempts=message.attempt,
                    )

        while True:
            ctx.count("distsim.rounds")
            if len(pool) == 1:
                loop(pool[0])
            else:
                threads = [
                    threading.Thread(target=loop, args=(worker,)) for worker in pool
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            if not self._supervise(messages, report, ctx):
                return


class DistributedRouteSimulation(_TaskRunner):
    """Distributed route simulation (100 subtasks in the paper)."""

    def run(
        self,
        input_routes: Sequence[InputRoute],
        subtasks: int = 100,
        workers: int = 1,
        partitioner=None,
        task_name: str = "route-task",
        ctx: Optional[RunContext] = None,
    ) -> RouteTaskResult:
        ctx = ensure_context(ctx)
        started = time.perf_counter()
        with ctx.span(
            "distsim.route_task",
            task=task_name,
            subtasks=subtasks,
            workers=workers,
        ):
            partitioner = partitioner or OrderingPartitioner()
            with ctx.span("partition", strategy=partitioner.name):
                chunks = partitioner.split_routes(list(input_routes), subtasks)

            messages: Dict[str, Message] = {}
            skipped = 0
            with ctx.span("dispatch"):
                for index, chunk in enumerate(chunks):
                    if not chunk:
                        skipped += 1
                        continue
                    subtask_id = f"{task_name}/route-{index:04d}"
                    input_key = f"{subtask_id}/input"
                    result_key = f"{subtask_id}/result"
                    self.store.put(input_key, chunk)
                    record = SubtaskRecord(subtask_id=subtask_id, kind="route")
                    record.ranges = ranges_of_prefixes(
                        [r.route.prefix for r in chunk]
                    )
                    self.db.register(record)
                    message = Message(
                        subtask_id=subtask_id,
                        kind="route",
                        payload={"input_key": input_key, "result_key": result_key},
                    )
                    messages[subtask_id] = message
                    self.mq.push(message)
            ctx.count("distsim.subtasks_dispatched", len(messages))
            ctx.count("distsim.subtasks_skipped", skipped)
            ctx.event(
                "distsim.route_task.dispatched", level=10,
                task=task_name, dispatched=len(messages), skipped=skipped,
            )

            report = self._drain(workers, messages, ctx=ctx)
            task_ids = list(messages)

            with ctx.span("merge"):
                # Streaming per-subtask assembly: each result file is
                # deserialized, folded into the merged RIBs, and released
                # before the next store read — peak RSS holds one result
                # blob plus the merged output, independent of subtask count.
                task_id_set = set(task_ids)
                merged = merge_device_ribs(
                    self.store.get(record.result_key)
                    for record in self.db.all(kind="route")
                    if record.subtask_id in task_id_set and record.result_key
                )
            durations = [
                record.duration
                for record in self.db.all(kind="route")
                if record.subtask_id in task_ids and record.status == FINISHED
            ]
        return RouteTaskResult(
            device_ribs=merged,
            db=self.db,
            store=self.store,
            subtask_durations=durations,
            elapsed_seconds=time.perf_counter() - started,
            report=report,
            skipped_subtasks=skipped,
        )


class DistributedTrafficSimulation(_TaskRunner):
    """Distributed traffic simulation (128 subtasks in the paper).

    Must share the ``store``/``db`` of the route simulation it follows, so
    workers can discover and load the route subtasks' RIB result files.
    """

    def run(
        self,
        flows: Sequence[Flow],
        subtasks: int = 128,
        workers: int = 1,
        partitioner=None,
        task_name: str = "traffic-task",
        ctx: Optional[RunContext] = None,
    ) -> TrafficTaskResult:
        ctx = ensure_context(ctx)
        started = time.perf_counter()
        with ctx.span(
            "distsim.traffic_task",
            task=task_name,
            subtasks=subtasks,
            workers=workers,
        ):
            partitioner = partitioner or OrderingPartitioner()
            with ctx.span("partition", strategy=partitioner.name):
                chunks = partitioner.split_flows(list(flows), subtasks)

            messages: Dict[str, Message] = {}
            with ctx.span("dispatch"):
                for index, chunk in enumerate(chunks):
                    if not chunk:
                        continue
                    subtask_id = f"{task_name}/traffic-{index:04d}"
                    input_key = f"{subtask_id}/input"
                    result_key = f"{subtask_id}/result"
                    self.store.put(input_key, chunk)
                    self.db.register(
                        SubtaskRecord(subtask_id=subtask_id, kind="traffic")
                    )
                    message = Message(
                        subtask_id=subtask_id,
                        kind="traffic",
                        payload={"input_key": input_key, "result_key": result_key},
                    )
                    messages[subtask_id] = message
                    self.mq.push(message)
            ctx.count("distsim.subtasks_dispatched", len(messages))

            report = self._drain(workers, messages, ctx=ctx)
            task_ids = list(messages)

            with ctx.span("merge"):
                loads = LinkLoadMap()
                paths: Dict = {}
                for record in self.db.all(kind="traffic"):
                    if record.subtask_id not in task_ids or not record.result_key:
                        continue
                    result = self.store.get(record.result_key)
                    loads = loads.merge(result["loads"])
                    paths.update(result["paths"])
            durations = [
                record.duration
                for record in self.db.all(kind="traffic")
                if record.subtask_id in task_ids and record.status == FINISHED
            ]
        return TrafficTaskResult(
            loads=loads,
            paths=paths,
            db=self.db,
            store=self.store,
            subtask_durations=durations,
            elapsed_seconds=time.perf_counter() - started,
            report=report,
        )
