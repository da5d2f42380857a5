"""The distributed simulation framework of §3.2 (Figure 3).

A simulation task is split by a master into subtasks, whose inputs are
uploaded to an object store; a message per subtask goes onto a message
queue; workers consume messages, run the subtask with the EC technique, and
write results back to the store while updating a subtask DB. The master
monitors, retries failures, and merges results.

The cluster is simulated in-process, but the *framework* is structurally
faithful: real (de)serialization through the store, FIFO queue semantics
with redelivery, per-subtask status tracking, range-based dependency
reduction (the ordering heuristic), and a list-scheduling makespan model
that reports end-to-end run time for any number of working servers.
"""

from repro.distsim.storage import ObjectStore, StorageFault
from repro.distsim.mq import DeadLetter, DeadLetterQueue, Message, MessageQueue
from repro.distsim.chaos import (
    ChaosEngine,
    ChaosPolicy,
    SubtaskTimeout,
    WorkerCrash,
    rib_fingerprint,
)
from repro.distsim.taskdb import SubtaskDB, SubtaskRecord
from repro.distsim.partition import (
    BalancedPartitioner,
    OrderingPartitioner,
    RandomPartitioner,
)
from repro.distsim.master import (
    DistributedRouteSimulation,
    DistributedTrafficSimulation,
    RetryPolicy,
    RouteTaskResult,
    RunReport,
    TaskFailed,
    TrafficTaskResult,
    makespan,
)
from repro.distsim.centralized import CentralizedRunner, MemoryExhausted

__all__ = [
    "ObjectStore",
    "StorageFault",
    "Message",
    "MessageQueue",
    "DeadLetter",
    "DeadLetterQueue",
    "SubtaskDB",
    "SubtaskRecord",
    "OrderingPartitioner",
    "RandomPartitioner",
    "BalancedPartitioner",
    "DistributedRouteSimulation",
    "DistributedTrafficSimulation",
    "RetryPolicy",
    "RouteTaskResult",
    "RunReport",
    "TaskFailed",
    "TrafficTaskResult",
    "makespan",
    "CentralizedRunner",
    "MemoryExhausted",
    "ChaosEngine",
    "ChaosPolicy",
    "SubtaskTimeout",
    "WorkerCrash",
    "rib_fingerprint",
]
