"""The four workloads: what an op is, what it produced, what it should have.

Every workload drives public ``repro`` entry points only, in this process,
on this thread, through the centralized backend with ``workers=1``. A
workload knows how to

* ``setup()`` — generate its inputs, prepare the program and warm it up;
* ``prelude(i)`` / ``run(i)`` — the untimed and the timed part of op ``i``;
* ``signature()`` / ``record()`` — a cheap tuple that must repeat exactly
  whenever op ``i`` is run again, and the full record (verdicts, RIB
  fingerprint, violation set, counts) that is compared with the oracle;
* ``oracle_record()`` — the same record from the independent arm:
  every ``perfopts`` flag off, ``incremental=False``,
  ``KFailureEngine(warm=False, prune=False)``, on separately generated
  inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import perfopts
from repro.core.pipeline import ChangeVerifier, VerificationReport
from repro.distsim.chaos import rib_fingerprint
from repro.kfailure import KFailureEngine, KFailureResult
from repro.routing.inputs import build_local_input_routes
from repro.routing.rib import DeviceRib
from repro.routing.simulator import simulate_routes

from benchmarks.e2e import inputs
from benchmarks.e2e.inputs import PlanSpec, Tier
from benchmarks.e2e.trace import Tracer

#: share of a workload's ops (prefixes, scenarios) the oracle arm re-derives
#: when no golden exists for the seed
ORACLE_SAMPLE_SHARE = 0.10

Record = Dict[str, Any]


def _sample(rng: random.Random, population: Sequence, share: float) -> List:
    return rng.sample(list(population), max(1, math.ceil(len(population) * share)))


def _rows_digest(device_ribs: Dict[str, DeviceRib], prefixes=None) -> str:
    """``rib_fingerprint`` restricted to a prefix set (all rows when None)."""
    if prefixes is None:
        return rib_fingerprint(device_ribs).hex()
    wanted = set(prefixes)
    digest = hashlib.sha256()
    for row in sorted(
        repr(row.identity())
        for rib in device_ribs.values()
        for row in rib.all_rows()
        if str(row.route.prefix) in wanted
    ):
        digest.update(row.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _sampled_rows(model, routes, prefixes) -> Record:
    """The sampled oracle arm: RIB rows of ``prefixes``, simulated alone.

    BGP propagation is independent per prefix (the generated WANs carry no
    aggregates), so the routes of a tenth of the prefixes, simulated without
    the others, must reproduce exactly their rows of the full simulation.
    """
    wanted = set(prefixes)
    subset = [
        r
        for r in list(routes) + build_local_input_routes(model)
        if str(r.route.prefix) in wanted
    ]
    result = simulate_routes(model, subset, include_local_inputs=False)
    return {"sample_rib": _rows_digest(result.device_ribs, wanted)}


def _with_sample(record: Record, device_ribs, hint: Record) -> Record:
    """Add the digest of the hinted prefixes' rows, when the oracle sampled."""
    if hint:
        record["sample_rib"] = _rows_digest(device_ribs, hint["sample_prefixes"])
    return record


def _loads_digest(traffic) -> str:
    if traffic is None:
        return ""
    digest = hashlib.sha256()
    for key, volume in sorted(traffic.loads.loads.items()):
        digest.update(f"{key}:{volume:.9g}\n".encode())
    return digest.hexdigest()


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    #: what ``work_per_s`` counts
    work_unit = ""
    #: inputs of one full route simulation (denominator of ``inputs_share``)
    total_inputs = 0

    def __init__(self, tier: Tier, seed: int) -> None:
        self.tier, self.seed = tier, seed

    def setup(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def op_count(self) -> int:
        return 1

    def prelude(self, index: int) -> None:
        """Untimed per-op preparation (a fresh engine, say)."""

    def run(self, index: int) -> Any:
        raise NotImplementedError

    def error(self, outcome: Any) -> Optional[str]:
        """Why the op counts as failed although it returned, or None."""
        return None

    def signature(self, outcome: Any) -> Tuple:
        raise NotImplementedError

    def work(self, outcome: Any) -> int:
        return 1

    def sample(self) -> Dict[int, Record]:
        """Seeded choice of what the oracle arm re-derives: op -> hint."""
        raise NotImplementedError

    def record(self, outcome: Any, hint: Record) -> Record:
        raise NotImplementedError

    def oracle_record(self, index: int, hint: Record) -> Record:
        """Record of op ``index`` from the independent arm.

        An empty hint asks for the whole record (golden generation); a
        non-empty one for the part :meth:`sample` chose.
        """
        raise NotImplementedError

    def _rng(self, purpose: str) -> random.Random:
        return random.Random(f"e2e-{self.name}-{purpose}-{self.seed}")


# -- change_small / change_widened ---------------------------------------------------


class ChangeWorkload(Workload):
    """Verify seeded change plans against one prepared ``w4`` verifier."""

    work_unit = "verifications"

    def __init__(
        self,
        name: str,
        tier: Tier,
        seed: int,
        make_plans: Callable[[inputs.World, int, int], List[PlanSpec]],
        plan_count: int,
        expected_mode: str,
    ) -> None:
        super().__init__(tier, seed)
        self.name = name
        self._make_plans = make_plans
        self._plan_count = plan_count
        self.expected_mode = expected_mode
        self.plans: List[PlanSpec] = []
        self.verifier: Optional[ChangeVerifier] = None
        self._oracle: Optional[Tuple[ChangeVerifier, List[PlanSpec]]] = None

    def _generate(self) -> Tuple[inputs.World, List[PlanSpec]]:
        world = inputs.make_w4(self.tier, self.seed)
        return world, self._make_plans(world, self.seed, self._plan_count)

    def setup(self, tracer: Tracer) -> None:
        with tracer.span("workload.generate"):
            world, self.plans = self._generate()
        self.verifier = ChangeVerifier(world.model, world.routes, world.flows)
        self.verifier.prepare_base()
        # one request, so the timed ones find the process as a second
        # request would: parser tables built, policy caches populated
        warm = self.run(0)
        self.total_inputs = warm.incremental.total_inputs

    def op_count(self) -> int:
        return len(self.plans)

    def run(self, index: int) -> VerificationReport:
        assert self.verifier is not None
        return self.verifier.verify(self.plans[index].build())

    def error(self, outcome: VerificationReport) -> Optional[str]:
        mode = outcome.incremental.mode
        if mode != self.expected_mode:
            return f"mode {mode!r}, expected {self.expected_mode!r}"
        return None

    def signature(self, outcome: VerificationReport) -> Tuple:
        stats = outcome.incremental
        return (
            stats.mode,
            tuple(r.satisfied for r in outcome.intent_results),
            tuple(len(r.counterexamples) for r in outcome.intent_results),
            len(outcome.updated_world.global_rib),
            stats.spliced_slots,
            stats.affected_prefixes,
            stats.resimulated_inputs,
        )

    def sample(self) -> Dict[int, Record]:
        rng = self._rng("oracle")
        chosen = _sample(rng, range(self._plan_count), ORACLE_SAMPLE_SHARE)
        prefixes = sorted({str(r.route.prefix) for r in self.verifier.input_routes})
        return {
            index: {
                "sample_prefixes": sorted(
                    {self.plans[index].prefix}
                    | set(_sample(rng, prefixes, ORACLE_SAMPLE_SHARE))
                )
            }
            for index in chosen
        }

    def record(self, outcome: VerificationReport, hint: Record) -> Record:
        world = outcome.updated_world
        record = {
            "verdicts": [r.satisfied for r in outcome.intent_results],
            "counterexamples": [len(r.counterexamples) for r in outcome.intent_results],
            "rib": _rows_digest(world.device_ribs),
            "best_rows": len(world.global_rib),
            "loads": _loads_digest(world.traffic),
        }
        return _with_sample(record, world.device_ribs, hint)

    def oracle_record(self, index: int, hint: Record) -> Record:
        with perfopts.all_disabled():
            if hint:
                world, plans = self._generate()
                plan = plans[index].build()
                return _sampled_rows(
                    plan.build_updated_model(world.model),
                    world.routes + plan.new_input_routes,
                    hint["sample_prefixes"],
                )
            if self._oracle is None:
                world, plans = self._generate()
                verifier = ChangeVerifier(
                    world.model, world.routes, world.flows, incremental=False
                )
                verifier.prepare_base()
                self._oracle = (verifier, plans)
            verifier, plans = self._oracle
            return self.record(verifier.verify(plans[index].build()), hint)


# -- base_cold ----------------------------------------------------------------------


class BaseColdWorkload(Workload):
    """``ChangeVerifier(...)`` + ``prepare_base()`` on ``w8``, from nothing."""

    name = "base_cold"
    work_unit = "rows"

    def __init__(self, tier: Tier, seed: int) -> None:
        super().__init__(tier, seed)
        self.world: Optional[inputs.World] = None

    def setup(self, tracer: Tracer) -> None:
        with tracer.span("workload.generate"):
            self.world = inputs.make_w8(self.tier, self.seed)
        self.total_inputs = len(self.world.routes) + len(
            build_local_input_routes(self.world.model)
        )
        self.run(0)

    def run(self, index: int) -> ChangeVerifier:
        world = self.world
        assert world is not None
        verifier = ChangeVerifier(world.model, world.routes, world.flows)
        verifier.prepare_base()
        return verifier

    def signature(self, outcome: ChangeVerifier) -> Tuple:
        world = outcome.base_world
        return (
            len(world.global_rib),
            sum(rib.route_count() for rib in world.device_ribs.values()),
            len(world.traffic.loads.loads),
        )

    def work(self, outcome: ChangeVerifier) -> int:
        return len(outcome.base_world.global_rib)

    def sample(self) -> Dict[int, Record]:
        assert self.world is not None
        prefixes = sorted({str(r.route.prefix) for r in self.world.routes})
        chosen = _sample(self._rng("oracle"), prefixes, ORACLE_SAMPLE_SHARE)
        return {0: {"sample_prefixes": sorted(chosen)}}

    def record(self, outcome: ChangeVerifier, hint: Record) -> Record:
        world = outcome.base_world
        record = {
            "rib": _rows_digest(world.device_ribs),
            "best_rows": len(world.global_rib),
            "loads": _loads_digest(world.traffic),
        }
        return _with_sample(record, world.device_ribs, hint)

    def oracle_record(self, index: int, hint: Record) -> Record:
        world = inputs.make_w8(self.tier, self.seed)
        with perfopts.all_disabled():
            if hint:
                return _sampled_rows(
                    world.model, world.routes, hint["sample_prefixes"]
                )
            verifier = ChangeVerifier(
                world.model, world.routes, world.flows, incremental=False
            )
            verifier.prepare_base()
            return self.record(verifier, hint)


# -- kfailure_sweep -----------------------------------------------------------------


class KFailureWorkload(Workload):
    """``KFailureEngine.check(k=1)`` on a fresh, prepared engine per op."""

    name = "kfailure_sweep"
    work_unit = "scenarios"
    #: the property must break somewhere, and hold in most scenarios
    MAX_VIOLATING_SHARE = 0.25

    def __init__(self, tier: Tier, seed: int) -> None:
        super().__init__(tier, seed)
        self.sweep: Optional[inputs.Sweep] = None
        self.engine: Optional[KFailureEngine] = None

    def _engine(self, sweep: inputs.Sweep, links, **options) -> KFailureEngine:
        return KFailureEngine(
            sweep.world.model, sweep.world.routes, links=links, **options
        )

    def setup(self, tracer: Tracer) -> None:
        with tracer.span("workload.generate"):
            self.sweep = inputs.make_sweep(self.tier, self.seed)
        sweep = self.sweep
        # warm-up: the whole path once, over the first and the last link
        engine = self._engine(sweep, [sweep.links[0], sweep.links[-1]])
        engine.prepare()
        self.total_inputs = len(engine.inputs)
        if sweep.prop(sweep.world.model, engine.base_result):
            raise RuntimeError("k-failure property does not hold on the base network")
        engine.check(1, sweep.prop)

    def prelude(self, index: int) -> None:
        assert self.sweep is not None
        self.engine = self._engine(self.sweep, self.sweep.links)
        self.engine.prepare()

    def run(self, index: int) -> KFailureResult:
        assert self.engine is not None and self.sweep is not None
        return self.engine.check(1, self.sweep.prop)

    def error(self, outcome: KFailureResult) -> Optional[str]:
        violating = len(outcome.violations)
        limit = self.MAX_VIOLATING_SHARE * outcome.scenarios_checked
        if not 0 < violating <= limit:
            return f"{violating}/{outcome.scenarios_checked} scenarios violate"
        return None

    def signature(self, outcome: KFailureResult) -> Tuple:
        return (
            outcome.scenarios_checked,
            outcome.scenarios_simulated,
            outcome.scenarios_pruned,
            len(outcome.violations),
        )

    def work(self, outcome: KFailureResult) -> int:
        return outcome.scenarios_checked

    @staticmethod
    def _violations(outcome: KFailureResult, endpoints=None) -> List[Tuple]:
        return sorted(
            {
                (tuple(v.failed_links), tuple(v.violations))
                for v in outcome.violations
                if endpoints is None or set(v.failed_links) <= endpoints
            }
        )

    def sample(self) -> Dict[int, Record]:
        assert self.sweep is not None
        links = self.sweep.links
        # always one uplink of the single-homed prefix, so the sample holds
        # a scenario that must violate
        indices = {len(links) - 1}
        indices.update(
            _sample(self._rng("oracle"), range(len(links)), ORACLE_SAMPLE_SHARE)
        )
        return {0: {"sample_links": sorted(indices)}}

    def record(self, outcome: KFailureResult, hint: Record) -> Record:
        record = {
            "scenarios": outcome.scenarios_checked,
            "violations": _jsonable(self._violations(outcome)),
        }
        if hint:
            assert self.sweep is not None
            endpoints = {
                self.sweep.links[i].endpoints for i in hint["sample_links"]
            }
            record["sample_violations"] = _jsonable(
                self._violations(outcome, endpoints)
            )
        return record

    def oracle_record(self, index: int, hint: Record) -> Record:
        sweep = inputs.make_sweep(self.tier, self.seed)
        links = (
            [sweep.links[i] for i in hint["sample_links"]] if hint else sweep.links
        )
        with perfopts.all_disabled():
            engine = self._engine(sweep, links, warm=False, prune=False)
            outcome = engine.check(1, sweep.prop)
        violations = _jsonable(self._violations(outcome))
        if hint:
            return {"sample_violations": violations}
        return {"scenarios": outcome.scenarios_checked, "violations": violations}


def _jsonable(value: Any) -> Any:
    """Tuples to lists, so a record equals its JSON round trip."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


# -- registry -----------------------------------------------------------------------

#: distinct plans per tier; each is verified once per round
PLAN_COUNTS = {"full": {"change_small": 4, "change_widened": 3},
               "smoke": {"change_small": 4, "change_widened": 3}}


def make_workload(name: str, tier: Tier, seed: int) -> Workload:
    if name == "change_small":
        return ChangeWorkload(
            name, tier, seed, inputs.small_plans,
            PLAN_COUNTS[tier.name][name], "incremental",
        )
    if name == "change_widened":
        return ChangeWorkload(
            name, tier, seed, inputs.widened_plans,
            PLAN_COUNTS[tier.name][name], "widened",
        )
    if name == "kfailure_sweep":
        return KFailureWorkload(tier, seed)
    if name == "base_cold":
        return BaseColdWorkload(tier, seed)
    raise ValueError(f"unknown workload {name!r}")
