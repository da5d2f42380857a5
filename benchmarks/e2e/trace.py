"""Layer-boundary tracing for the traced pass, from outside ``src/``.

:func:`install` wraps the public entry points of each ``repro`` layer so
that every call made while an op is open records one span — name, start,
end, parent, op id — in memory. Counts (messages, rounds, rows, slots,
scenarios) are read from the public result objects at the same boundary,
after the span has ended. Nothing in ``src/`` is edited and the program's
own ``RunContext`` tree is not consulted: in-program spans are a later
issue. :func:`uninstall` restores every patched name.

Spans are stamped on the CPU clock, like the runner's ops (see
``runner.py``). A span name is ``<layer>.<entry point>``; the layer is the ``repro``
module the entry point belongs to. A layer's *self* time is its spans'
duration minus the time their direct children cover; because the program
is single-threaded and the wrappers nest properly, that is exact.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: phase of the workload a span belongs to
SETUP, OP = "setup", "op"

#: the root span the runner opens around each timed op body
ROOT = "core.pipeline.op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "phase", "counts", "held")

    def __init__(self, name: str, parent: int, op: int, phase: str) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.op = op
        self.phase = phase
        self.counts: Dict[str, float] = {}
        #: references kept until :meth:`Tracer.close_op` turns them into counts
        self.held: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; inactive unless an op is open."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._op_first = 0
        self._phase = OP
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- op lifecycle (driven by the runner) ----------------------------------

    def open_op(self, op: int, phase: str) -> None:
        """Start recording; ``op`` identifies one execution, not one plan."""
        self._op, self._phase = op, phase
        self._op_first = len(self.spans)

    def close_op(self) -> None:
        """Stop recording and settle counts that needed the op to be over."""
        self._op = None
        self._stack.clear()
        for span in self.spans[self._op_first:]:
            if span.held is not None:
                span.counts["changed_slots"] = _changed_slots(*span.held)
                span.held = None

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a span around benchmark-side code."""
        return _SpanContext(self, name)

    def _begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self._op, self._phase)  # type: ignore[arg-type]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.process_time()
        return span

    def _end(self, span: Span) -> None:
        span.end = time.process_time()
        self._stack.pop()

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_return: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        return traced

    def patch_attr(self, owner: Any, attr: str, name: str, on_return=None) -> None:
        """Wrap ``owner.attr`` (a method on a class) in place."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(name, raw.__func__, on_return))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__, on_return))
        else:
            wrapped = self.wrap(name, raw, on_return)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def patch_function(self, fn: Callable, name: str, on_return=None) -> None:
        """Wrap a module-level function under every ``repro`` name bound to it.

        ``from x import f`` copies the binding, so callers that imported the
        function by name are patched in their own namespaces too.
        """
        wrapped = self.wrap(name, fn, on_return)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def unpatch_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name
        self.record: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        if self.tracer._op is not None:
            self.record = self.tracer._begin(self.name)
        return self.record

    def __exit__(self, *exc) -> None:
        if self.record is not None:
            self.tracer._end(self.record)


def _changed_slots(base_ribs, spliced_ribs, blast) -> int:
    """Covered (device, vrf, prefix) slots whose rows differ from the base.

    The splice re-installs every covered slot; the slots among them that
    really moved are what the blast radius had to cover, so
    ``changed / spliced`` is the radius's tightness.
    """
    changed = 0
    for name, rib in spliced_ribs.items():
        base = base_ribs.get(name)
        if rib is base:
            continue
        slots = {(vrf, p) for vrf in rib.vrfs for p in rib.prefixes(vrf)}
        if base is not None:
            slots.update((vrf, p) for vrf in base.vrfs for p in base.prefixes(vrf))
        for vrf, prefix in slots:
            if not blast.covers(prefix):
                continue
            after = rib.entries_for(prefix, vrf)
            before = base.entries_for(prefix, vrf) if base is not None else []
            if after != before:
                changed += 1
    return changed


# -- the wrap list ------------------------------------------------------------


def _sized(value: Any) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _on_build_model(span, args, kwargs, result) -> None:
    span.counts["commands"] = args[0].command_count()


def _on_bgp_run(span, args, kwargs, result) -> None:
    span.counts["messages"] = result.stats.messages
    span.counts["rounds"] = result.stats.rounds
    span.counts["inputs"] = _sized(args[1] if len(args) > 1 else kwargs["input_routes"])


def _on_best_routes(span, args, kwargs, result) -> None:
    span.counts["rows"] = len(result)


def _on_analyze(span, args, kwargs, result) -> None:
    blast = result[1]
    span.counts["affected_prefixes"] = len(blast.affected_prefixes)
    span.counts["widened"] = int(blast.widened)


def _on_splice(span, args, kwargs, result) -> None:
    span.counts["spliced_slots"] = result.spliced_slots
    span.counts["affected_prefixes"] = len(args[3].affected_prefixes)
    span.held = (args[1], result.device_ribs, args[3])


def _on_flow_ecs(span, args, kwargs, result) -> None:
    span.counts["flow_ecs"] = len(result.classes)


def _on_traffic(span, args, kwargs, result) -> None:
    span.counts["flows"] = _sized(args[1] if len(args) > 1 else kwargs["flows"])


def _on_intent(span, args, kwargs, result) -> None:
    span.counts["violated"] = int(not result.satisfied)


def _on_check(span, args, kwargs, result) -> None:
    span.counts["scenarios_total"] = result.scenarios_checked
    span.counts["scenarios_simulated"] = result.scenarios_simulated
    span.counts["scenarios_pruned"] = result.scenarios_pruned
    span.counts["violating_scenarios"] = len(result.violations)


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (idempotent per tracer)."""
    from repro.core.change_plan import ChangePlan
    from repro.core.intents import Intent
    from repro.ec import flow_ec
    from repro.exec import CentralizedBackend, IncrementalBackend
    from repro.incremental.engine import IncrementalEngine
    from repro.kfailure import FailureBlastAnalyzer, KFailureEngine
    from repro.rcl import eval as rcl_eval
    from repro.rcl import parser as rcl_parser
    from repro.routing import inputs as routing_inputs
    from repro.routing import isis
    from repro.routing.bgp import BgpSimulator
    from repro.routing.rib import GlobalRib
    from repro.routing.simulator import RouteSimulator
    from repro.traffic.simulator import TrafficSimulator

    if tracer._patched:
        return
    m, f = tracer.patch_attr, tracer.patch_function
    m(ChangePlan, "build_updated_model", "net.config.build_updated_model", _on_build_model)
    f(isis.compute_igp, "routing.isis.compute_igp")
    f(routing_inputs.build_local_input_routes, "routing.inputs.build_local")
    f(routing_inputs.build_local_inputs_for_device, "routing.inputs.build_local")
    for backend in (CentralizedBackend, IncrementalBackend):
        m(backend, "run_routes", "exec.run_routes")
        m(backend, "run_traffic", "exec.run_traffic")
    m(RouteSimulator, "simulate", "routing.simulator.simulate")
    m(RouteSimulator, "assemble_ribs", "routing.simulator.assemble_ribs")
    m(BgpSimulator, "run", "routing.bgp.run", _on_bgp_run)
    m(GlobalRib, "from_device_ribs", "routing.rib.from_device_ribs")
    m(GlobalRib, "best_routes", "routing.rib.best_routes", _on_best_routes)
    m(IncrementalEngine, "analyze", "incremental.analyze", _on_analyze)
    m(IncrementalEngine, "splice", "incremental.splice", _on_splice)
    m(IncrementalEngine, "snapshot_base", "incremental.snapshot_base")
    f(flow_ec.compute_flow_ecs, "ec.flow_ecs", _on_flow_ecs)
    f(flow_ec.build_prefix_universe, "ec.prefix_universe")
    m(TrafficSimulator, "__init__", "traffic.init")
    m(TrafficSimulator, "simulate", "traffic.simulate", _on_traffic)
    for intent_class in _subclasses(Intent):
        if "evaluate" in intent_class.__dict__:
            m(intent_class, "evaluate", "core.intents.evaluate", _on_intent)
    f(rcl_parser.parse, "rcl.parse")
    f(rcl_eval.verify, "rcl.verify")
    m(KFailureEngine, "prepare", "kfailure.prepare")
    m(KFailureEngine, "check", "kfailure.check", _on_check)
    m(FailureBlastAnalyzer, "class_key", "kfailure.class_key")
    m(FailureBlastAnalyzer, "effect", "kfailure.effect")


def uninstall(tracer: Tracer) -> None:
    tracer.unpatch_all()


# -- per-layer metrics -----------------------------------------------------------

#: metric -> (kind, span names). ``incl`` sums the duration of the named
#: spans (outermost only, when they nest); ``self`` sums their self time.
TIME_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "net.config.build_updated_model_s": ("incl", ("net.config.build_updated_model",)),
    "routing.isis.compute_igp_s": ("incl", ("routing.isis.compute_igp",)),
    "routing.inputs.build_local_s": ("incl", ("routing.inputs.build_local",)),
    "routing.bgp.fixpoint_s": ("incl", ("routing.bgp.run",)),
    # ``simulate`` calls the private ``_assemble_ribs``; with the fixpoint
    # as its only traced child, its self time is the assembly.
    "routing.simulator.assemble_ribs_s": (
        "self", ("routing.simulator.simulate", "routing.simulator.assemble_ribs"),
    ),
    "routing.rib.global_rib_s": (
        "self", ("routing.rib.from_device_ribs", "routing.rib.best_routes"),
    ),
    "exec.run_routes_self_s": ("self", ("exec.run_routes",)),
    "exec.run_traffic_self_s": ("self", ("exec.run_traffic",)),
    "incremental.analyze_s": ("incl", ("incremental.analyze",)),
    "incremental.splice_s": ("incl", ("incremental.splice",)),
    "incremental.snapshot_base_s": ("incl", ("incremental.snapshot_base",)),
    "ec.flow_ecs_s": ("self", ("ec.flow_ecs", "ec.prefix_universe")),
    "traffic.simulate_s": ("incl", ("traffic.simulate", "traffic.init")),
    "traffic.self_s": ("self", ("traffic.simulate", "traffic.init")),
    "core.intents.check_s": ("incl", ("core.intents.evaluate",)),
    "rcl.parse_s": ("incl", ("rcl.parse",)),
    "rcl.verify_s": ("incl", ("rcl.verify",)),
    "core.pipeline.self_s": ("self", (ROOT,)),
    "kfailure.check_s": ("incl", ("kfailure.check",)),
    "kfailure.blast_s": ("self", ("kfailure.class_key", "kfailure.effect")),
}

#: metrics measured on set-up spans (the workload's and each op's own)
SETUP_TIME_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "workload.generate_s": ("incl", ("workload.generate",)),
    "kfailure.prepare_s": ("incl", ("kfailure.prepare",)),
}

#: share metric -> the time metric it divides by the op's wall time
SHARE_METRICS = {
    "routing.bgp.fixpoint_share": "routing.bgp.fixpoint_s",
    "traffic.share": "traffic.simulate_s",
    "core.intents.share": "core.intents.check_s",
    "core.pipeline.self_share": "core.pipeline.self_s",
}

#: count metric -> (span name, count key, how calls within one op combine)
COUNT_METRICS: Dict[str, Tuple[str, str, str]] = {
    "net.config.commands": ("net.config.build_updated_model", "commands", "sum"),
    "routing.isis.calls": ("routing.isis.compute_igp", "", "calls"),
    "routing.bgp.messages": ("routing.bgp.run", "messages", "sum"),
    "routing.bgp.rounds": ("routing.bgp.run", "rounds", "sum"),
    "routing.bgp.inputs": ("routing.bgp.run", "inputs", "sum"),
    "routing.rib.rows": ("routing.rib.best_routes", "rows", "max"),
    "incremental.affected_prefixes": ("incremental.splice", "affected_prefixes", "sum"),
    "incremental.spliced_slots": ("incremental.splice", "spliced_slots", "sum"),
    "incremental.changed_slots": ("incremental.splice", "changed_slots", "sum"),
    "ec.flow_ecs": ("ec.flow_ecs", "flow_ecs", "sum"),
    "traffic.flows": ("traffic.simulate", "flows", "sum"),
    "core.intents.checked": ("core.intents.evaluate", "", "calls"),
    "core.intents.violated": ("core.intents.evaluate", "violated", "sum"),
    "rcl.specs": ("rcl.verify", "", "calls"),
    "kfailure.scenarios_total": ("kfailure.check", "scenarios_total", "sum"),
    "kfailure.scenarios_simulated": ("kfailure.check", "scenarios_simulated", "sum"),
    "kfailure.scenarios_pruned": ("kfailure.check", "scenarios_pruned", "sum"),
    "kfailure.violating_scenarios": ("kfailure.check", "violating_scenarios", "sum"),
}

#: counts that must repeat exactly between two runs of the same code and seed
EXACT_COUNTS = (
    "routing.bgp.messages",
    "routing.bgp.rounds",
    "routing.rib.rows",
    "incremental.spliced_slots",
    "kfailure.scenarios_simulated",
)


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _self_times(spans: Sequence[Span]) -> List[float]:
    self_time = [s.duration for s in spans]
    for span in spans:
        if span.parent >= 0:
            self_time[span.parent] -= span.duration
    return self_time


def _time_per_op(
    spans: Sequence[Span], self_time: Sequence[float], phase: str,
    kind: str, names: Tuple[str, ...],
) -> Dict[int, float]:
    per_op: Dict[int, float] = {}
    for index, span in enumerate(spans):
        if span.phase != phase or span.name not in names:
            continue
        if kind == "self":
            value = self_time[index]
        elif span.parent >= 0 and spans[span.parent].name in names:
            continue  # nested under a span already counted
        else:
            value = span.duration
        per_op[span.op] = per_op.get(span.op, 0.0) + value
    return per_op


def _count_per_op(
    spans: Sequence[Span], name: str, key: str, combine: str
) -> Dict[int, float]:
    per_op: Dict[int, float] = {}
    for span in spans:
        if span.phase != OP or span.name != name:
            continue
        value = 1 if combine == "calls" else span.counts.get(key, 0)
        if combine == "max":
            per_op[span.op] = max(per_op.get(span.op, 0), value)
        else:
            per_op[span.op] = per_op.get(span.op, 0) + value
    return per_op


def layer_metrics(
    spans: Sequence[Span], total_inputs: int, traced_wall: Dict[int, float],
    untraced_wall: Dict[int, float],
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``_s`` metrics are the median over ops of the per-op time; counts are
    the median over ops too (they are the same for every repeat of one
    op). Ops a layer never ran in contribute zero, so a layer that runs
    in under half the ops reads 0 — which is what "not exercised by this
    workload" should read.
    """
    self_time = _self_times(spans)
    ops = sorted({s.op for s in spans if s.phase == OP})
    wall = _time_per_op(spans, self_time, OP, "incl", (ROOT,))
    metrics: Dict[str, float] = {}

    per_op_time: Dict[str, Dict[int, float]] = {}
    for metric, (kind, names) in TIME_METRICS.items():
        per_op_time[metric] = _time_per_op(spans, self_time, OP, kind, names)
        metrics[metric] = _median([per_op_time[metric].get(op, 0.0) for op in ops])
    for metric, (kind, names) in SETUP_TIME_METRICS.items():
        metrics[metric] = _median(
            list(_time_per_op(spans, self_time, SETUP, kind, names).values())
        )
    if not per_op_time["incremental.snapshot_base_s"]:
        # the change workloads snapshot the base once, in set-up
        metrics["incremental.snapshot_base_s"] = _median(
            list(_time_per_op(
                spans, self_time, SETUP, "incl", ("incremental.snapshot_base",)
            ).values())
        )
    for metric, source in SHARE_METRICS.items():
        metrics[metric] = _median(
            [per_op_time[source].get(op, 0.0) / wall[op] for op in ops if wall.get(op)]
        )

    for metric, (name, key, combine) in COUNT_METRICS.items():
        per_op = _count_per_op(spans, name, key, combine)
        metrics[metric] = _median([per_op.get(op, 0) for op in ops])

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    bgp_runs = _count_per_op(spans, "routing.bgp.run", "", "calls")
    metrics["routing.bgp.inputs_share"] = ratio(
        metrics["routing.bgp.inputs"],
        _median([bgp_runs.get(op, 0) for op in ops]) * total_inputs,
    )
    widened = {s.op for s in spans if s.phase == OP and s.counts.get("widened")}
    analyzed = {s.op for s in spans if s.phase == OP and s.name == "incremental.analyze"}
    metrics["incremental.widened_share"] = ratio(len(widened), len(analyzed))
    metrics["incremental.useful_share"] = ratio(
        metrics["incremental.changed_slots"], metrics["incremental.spliced_slots"]
    )
    metrics["ec.flow_reduction"] = ratio(metrics["traffic.flows"], metrics["ec.flow_ecs"])
    metrics["kfailure.pruned_share"] = ratio(
        metrics["kfailure.scenarios_pruned"], metrics["kfailure.scenarios_total"]
    )
    shared = [op for op in traced_wall if op in untraced_wall]
    metrics["trace.overhead_share"] = ratio(
        _median([traced_wall[op] for op in shared]),
        _median([untraced_wall[op] for op in shared]),
    ) - (1.0 if shared else 0.0)
    return metrics


def spans_as_json(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    origin = spans[0].start if spans else 0.0
    return [
        {
            "id": index,
            "name": span.name,
            "start": round(span.start - origin, 6),
            "end": round(span.end - origin, 6),
            "parent": span.parent,
            "op": span.op,
            "phase": span.phase,
            "counts": span.counts,
        }
        for index, span in enumerate(spans)
    ]
