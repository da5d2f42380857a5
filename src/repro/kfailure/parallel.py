"""Parallel frontier fan-out: equivalence classes across a worker pool.

The engine hands over one :class:`ClassJob` per equivalence class that
actually needs a fixpoint solve. Jobs are dealt into per-worker batches
largest-blast-first (:func:`repro.distsim.partition.interleave_by_priority`)
so every worker starts on expensive work immediately, and batches stream
back as they complete — the engine splices and judges each class the moment
its partial RIBs land, which is what makes early-exit-on-first-violation
effective.

Workers run only the *inner* covered-subset solve (the exact computation a
centralized inner backend would run under the incremental decorator); the
splice against the base RIBs and the property evaluation stay in the
master, where the base RIBs already live and where property closures —
which are not picklable — can run. Thread workers share the master's
read-only base state via a per-worker ``model.copy()`` plus the analyzer's
digest-keyed IGP cache; process workers receive the (model, inputs) context
**once** through :mod:`repro.distsim.shipping`'s shared-memory transport
and recompute each class's IGP locally.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.distsim import shipping
from repro.distsim.partition import interleave_by_priority
from repro.kfailure.blast import ClassKey
from repro.kfailure.scenarios import FailureScenario, apply_scenario
from repro.net.model import NetworkModel
from repro.routing.inputs import InputRoute
from repro.routing.isis import IgpState, compute_igp
from repro.routing.rib import DeviceRib
from repro.routing.simulator import RouteSimulator

PARALLEL_MODES = ("thread", "process")

#: results of one batch: (class key, partial device RIBs) per job.
BatchResult = List[Tuple[ClassKey, Dict[str, DeviceRib]]]


@dataclass
class ClassJob:
    """One equivalence class to solve: representative + covered subset."""

    key: ClassKey
    scenario: FailureScenario
    covered_indices: Tuple[int, ...]
    priority: int


def solve_class(
    model: NetworkModel,
    inputs: Sequence[InputRoute],
    job: ClassJob,
    igp: Optional[IgpState] = None,
) -> Dict[str, DeviceRib]:
    """The inner covered-subset solve of one class, overlay applied/undone.

    Byte-identical to what ``CentralizedBackend.run_routes`` produces for
    the same (overlaid model, covered inputs, IGP) request — the master
    splices these partial RIBs exactly as the sequential warm path does.
    """
    restore = apply_scenario(model.topology, job.scenario)
    try:
        state = igp if igp is not None else compute_igp(model)
        covered = [inputs[i] for i in job.covered_indices]
        result = RouteSimulator(model, igp=state).simulate(
            covered, include_local_inputs=False
        )
        return result.device_ribs
    finally:
        restore()


def _solve_batch_threaded(
    model: NetworkModel,
    inputs: Sequence[InputRoute],
    batch: List[ClassJob],
    igp_of: Optional[Callable[[ClassKey], Optional[IgpState]]],
) -> BatchResult:
    # One private model copy per batch: the failure overlay is mutable
    # topology state, so concurrent batches cannot share the master's model.
    # IgpState objects are immutable data and safe to share across threads.
    local = model.copy()
    return [
        (
            job.key,
            solve_class(
                local, inputs, job, igp_of(job.key) if igp_of else None
            ),
        )
        for job in batch
    ]


#: shipping token installed by the process-pool initializer; the context
#: materializes lazily on first use so pool start-up stays O(token).
_PROCESS_TOKEN: Any = None
_PROCESS_CONTEXT: Optional[Tuple[NetworkModel, List[InputRoute]]] = None


def _init_process_worker(token: Any) -> None:
    global _PROCESS_TOKEN, _PROCESS_CONTEXT
    _PROCESS_TOKEN = token
    _PROCESS_CONTEXT = None


def _solve_batch_process(batch: List[ClassJob]) -> BatchResult:
    global _PROCESS_CONTEXT
    if _PROCESS_CONTEXT is None:
        _PROCESS_CONTEXT = shipping.load(_PROCESS_TOKEN)
    model, inputs = _PROCESS_CONTEXT
    return [(job.key, solve_class(model, inputs, job)) for job in batch]


class FrontierExecutor:
    """Streams class-job batches through a thread or process pool."""

    def __init__(
        self,
        model: NetworkModel,
        inputs: Sequence[InputRoute],
        mode: str = "thread",
        workers: Optional[int] = None,
        igp_of: Optional[Callable[[ClassKey], Optional[IgpState]]] = None,
    ) -> None:
        if mode not in PARALLEL_MODES:
            raise ValueError(
                f"unknown parallel mode {mode!r}; expected one of {PARALLEL_MODES}"
            )
        self.model = model
        self.inputs = list(inputs)
        self.mode = mode
        self.workers = workers if workers else min(4, os.cpu_count() or 2)
        self.igp_of = igp_of

    def run(self, jobs: Sequence[ClassJob]) -> Iterator[BatchResult]:
        """Yield batch results as they complete.

        Closing the iterator early (breaking out of the loop) cancels every
        not-yet-started batch and releases the pool — the early-exit path.
        """
        batches = [
            batch
            for batch in interleave_by_priority(
                jobs, self.workers, lambda job: job.priority
            )
            if batch
        ]
        if not batches:
            return
        shipped: Optional[shipping.ShippedContext] = None
        if self.mode == "thread":
            pool: Any = ThreadPoolExecutor(max_workers=self.workers)
            futures = [
                pool.submit(
                    _solve_batch_threaded,
                    self.model,
                    self.inputs,
                    batch,
                    self.igp_of,
                )
                for batch in batches
            ]
        else:
            shipped = shipping.ship((self.model, self.inputs))
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_process_worker,
                initargs=(shipped.token,),
            )
            futures = [
                pool.submit(_solve_batch_process, batch) for batch in batches
            ]
        try:
            for future in as_completed(futures):
                yield future.result()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
            if shipped is not None:
                shipped.close()
