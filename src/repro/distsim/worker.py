"""The working server (Figure 3).

A worker listens to the MQ, loads its subtask's input from the object
store, runs the simulation with the EC technique, writes the result file
back, and keeps the subtask DB updated. Traffic workers consult the DB's
recorded route-subtask ranges and load only the RIB files their flow range
can depend on (the ordering heuristic's payoff, Figure 5(d)).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.distsim.mq import Message
from repro.distsim.storage import ObjectStore
from repro.distsim.taskdb import FINISHED, RUNNING, SubtaskDB
from repro.net.addr import PrefixRange
from repro.net.model import NetworkModel
from repro.routing.isis import IgpState
from repro.routing.rib import DeviceRib
from repro.routing.simulator import RouteSimulator
from repro.traffic.simulator import TrafficSimulator


class SubtaskFailure(Exception):
    """Raised by the failure injector to simulate a crashed subtask."""


def merge_device_ribs(
    rib_maps: Iterable[Dict[str, DeviceRib]],
) -> Dict[str, DeviceRib]:
    """Union the device RIBs produced by several route subtasks.

    Accepts any iterable and consumes it one map at a time, so callers can
    stream result files out of the object store (a generator of
    ``store.get(...)`` calls) and peak memory holds one undeserialized
    subtask result plus the merged output — not every result at once.
    """
    merged: Dict[str, DeviceRib] = {}
    for rib_map in rib_maps:
        for device, rib in rib_map.items():
            target = merged.get(device)
            if target is None:
                target = DeviceRib(device)
                merged[device] = target
            for row in rib.all_rows():
                target.install(row.route, vrf=row.vrf, route_type=row.route_type)
    return merged


@dataclass
class WorkerConfig:
    """Knobs for a worker.

    ``use_flow_ecs`` toggles the flow-EC technique (ablation; route ECs are
    the ``route_ecs`` perf flag of the shared simulator); ``load_all_ribs``
    disables dependency reduction (the paper's "baseline"
    strategy in Figure 5(b)); ``failure_hook`` lets tests and the Table-4
    campaign inject subtask crashes.
    """

    use_flow_ecs: bool = True
    load_all_ribs: bool = False
    failure_hook: Optional[Callable[[Message], bool]] = None


class Worker:
    """Executes route/traffic subtasks from the message queue."""

    def __init__(
        self,
        name: str,
        model: NetworkModel,
        igp: IgpState,
        store: ObjectStore,
        db: SubtaskDB,
        config: Optional[WorkerConfig] = None,
        chaos=None,
        ctx=None,
        max_rounds: int = 50,
    ) -> None:
        self.name = name
        self.model = model
        self.igp = igp
        self.store = store
        self.db = db
        self.config = config or WorkerConfig()
        #: optional repro.distsim.chaos.ChaosEngine injecting faults
        self.chaos = chaos
        #: optional repro.obs.RunContext for subtask counters
        self.ctx = ctx
        self._route_simulator = RouteSimulator(
            model, igp=igp, max_rounds=max_rounds, include_connected=False
        )

    def _count(self, name: str, value: float = 1) -> None:
        if self.ctx is not None:
            self.ctx.count(name, value)

    # -- message handling -----------------------------------------------------

    def handle(self, message: Message) -> bool:
        """Run one subtask; returns False (and marks FAILED) on failure.

        Every failure path — injected crash, storage fault, unknown kind,
        missing payload key, even a message for an unregistered subtask —
        lands in the DB with a non-empty reason string; nothing is silently
        swallowed. Duplicate deliveries of an already-finished subtask are
        acknowledged without re-running it (idempotent result upload).
        """
        started = time.perf_counter()
        if self.chaos is not None:
            self.chaos.enter(message)
        try:
            record = self.db.ensure(message.subtask_id, message.kind)
            if record.status == FINISHED and record.result_key:
                # Duplicate delivery: the result object is already uploaded.
                if self.chaos is not None:
                    self.chaos.count("worker.duplicate_skip")
                return True
            self.db.update(
                message.subtask_id, status=RUNNING, attempts=message.attempt
            )
            if self.chaos is not None:
                self.chaos.crash_point("worker.crash_before", message)
                self.chaos.maybe_slow(message)
            if self.config.failure_hook is not None and self.config.failure_hook(
                message
            ):
                raise SubtaskFailure(f"injected failure on {message.subtask_id}")
            if message.kind == "route":
                self._run_route_subtask(message)
            elif message.kind == "traffic":
                self._run_traffic_subtask(message)
            else:
                raise ValueError(f"unknown subtask kind {message.kind!r}")
        except Exception as exc:  # noqa: BLE001 - status must reflect any crash
            current = self.db.ensure(message.subtask_id, message.kind)
            if current.status == FINISHED and current.result_key:
                # A concurrent duplicate delivery already finished the
                # subtask; this attempt's failure must not downgrade it.
                return True
            self.db.mark_failed(
                message.subtask_id,
                message.kind,
                f"{type(exc).__name__}: {exc}",
                duration=time.perf_counter() - started,
                attempts=message.attempt,
            )
            self._count("distsim.subtask_failures")
            return False
        finally:
            if self.chaos is not None:
                self.chaos.exit()
        self.db.update(
            message.subtask_id,
            status=FINISHED,
            duration=time.perf_counter() - started,
        )
        self._count("distsim.subtasks_finished")
        return True

    # -- route subtask -----------------------------------------------------------

    def _run_route_subtask(self, message: Message) -> None:
        input_key = message.payload["input_key"]
        result_key = message.payload["result_key"]
        input_routes = self.store.get(input_key)

        # The simulator solves one representative prefix group per route EC
        # — jointly, so cross-prefix effects (aggregation, suppression) stay
        # coherent — and clones the rows onto the member prefixes.
        result = self._route_simulator.simulate(
            input_routes, include_local_inputs=False, ctx=self.ctx
        )
        ribs = result.device_ribs

        self.store.put(result_key, ribs)
        if self.chaos is not None:
            # Crash *after* the result object is uploaded but before the DB
            # learns about it — the retry must tolerate the orphaned upload.
            self.chaos.crash_point("worker.crash_after", message)
        self.db.update(
            message.subtask_id,
            ranges=self._result_ranges(ribs),
            cost_units=result.cost_units,
            result_key=result_key,
        )

    @staticmethod
    def _result_ranges(ribs: Dict[str, DeviceRib]) -> List[PrefixRange]:
        by_family: Dict[int, PrefixRange] = {}
        for rib in ribs.values():
            for vrf in rib.vrfs:
                for prefix in rib.prefixes(vrf):
                    current = by_family.get(prefix.family)
                    candidate = PrefixRange.of_prefix(prefix)
                    by_family[prefix.family] = (
                        candidate if current is None else current.merge(candidate)
                    )
        return list(by_family.values())

    # -- traffic subtask -----------------------------------------------------------

    def _run_traffic_subtask(self, message: Message) -> None:
        input_key = message.payload["input_key"]
        result_key = message.payload["result_key"]
        flows = self.store.get(input_key)

        rib_keys = self._select_rib_files(message, flows)
        # Streamed: each RIB result file is deserialized, folded into the
        # merged map, and released before the next is fetched.
        ribs = merge_device_ribs(self.store.get(key) for key in rib_keys)

        simulator = TrafficSimulator(
            self.model, ribs, igp=self.igp, use_ecs=self.config.use_flow_ecs
        )
        result = simulator.simulate(flows)
        self.store.put(
            result_key,
            {"loads": result.loads, "paths": result.paths, "ec_index": result.ec_index},
        )
        if self.chaos is not None:
            self.chaos.crash_point("worker.crash_after", message)
        self.db.update(
            message.subtask_id,
            cost_units=result.cost_units,
            loaded_rib_files=len(rib_keys),
            result_key=result_key,
        )

    def _select_rib_files(self, message: Message, flows) -> List[str]:
        """Dependency reduction: RIB files whose range overlaps our flows."""
        route_records = [
            record
            for record in self.db.all(kind="route")
            if record.result_key
        ]
        if self.config.load_all_ribs or not flows:
            return [record.result_key for record in route_records]
        flow_ranges: Dict[int, PrefixRange] = {}
        for flow in flows:
            current = flow_ranges.get(flow.dst.family)
            point = PrefixRange(flow.dst.family, flow.dst.value, flow.dst.value)
            flow_ranges[flow.dst.family] = (
                point if current is None else current.merge(point)
            )
        selected: List[str] = []
        for record in route_records:
            overlap = any(
                rib_range.overlaps(flow_range)
                for rib_range in record.ranges
                for flow_range in flow_ranges.values()
            )
            if overlap:
                selected.append(record.result_key)
        return selected
