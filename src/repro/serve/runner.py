"""Executes one job against the daemon's hot state.

The runner is transport-free: the scheduler hands it a job spec plus a
``push_event`` callback and gets back a plain result dict (or an
exception). Progress streams live — the runner opens a per-job
:class:`~repro.obs.RunContext`, subscribes to its span-close hook, and
forwards every closed span as an NDJSON-able event; no polling anywhere.

Job kinds:

``verify``
    Materialize the change plan, get the model's prepared verifier from
    the hot state (first use pays ``prepare_base`` once per model), verify
    under the job's perf flags, and return the verdict plus the updated
    world's ``rib_fingerprint``. Identical (model, request) pairs are
    served from the result cache; a delta on the same model warm-starts
    through the verifier's incremental engine.
``whatif``
    Same machinery, topology-ops-first ergonomics: a plan with ops but no
    intents defaults to ``PRE = POST`` ("this exploration changes
    nothing"), and ``change_type`` defaults to ``topology-adjustment``.
``simulate``
    Return the model's base world (RIB rows, fingerprint, link loads) —
    cached wholesale after the first request.
``kfailure``
    Check a reachability property under every ≤k failure scenario with
    the shared-fixpoint engine. The prepared engine (base fixpoint +
    blast analyzer) is cached per (model, backend,
    params) in the hot state, so repeated sweeps on one snapshot only
    pay scenario exploration.
``sleep``
    A diagnostic no-op that emits heartbeat events; used by operational
    smoke tests and the scheduler's own test suite.

The module-level :func:`execute_spec` is importable from a forked worker
process (process isolation), where it runs against a throwaway
:class:`~repro.serve.state.HotState` — cold by construction, but killable.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from repro.core.planjson import plan_from_json
from repro.distsim import rib_fingerprint
from repro.obs import RunContext
from repro.serve.state import HotState

PushEvent = Callable[[Dict[str, Any]], None]
CancelCheck = Callable[[], bool]


class JobCancelled(Exception):
    """Raised inside a job when cancellation was requested and honored."""


def _noop_push(event: Dict[str, Any]) -> None:
    return


def _never_cancelled() -> bool:
    return False


def _request_fingerprint_fields(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The spec fields that determine a job's *result* (cache key).

    Tenant, priority, and isolation affect scheduling, not the verdict, so
    they are excluded — two tenants submitting the same request share one
    cache slot.
    """
    fields = {
        "kind": spec["kind"],
        "plan": spec.get("plan"),
        "backend": spec.get("backend", "centralized"),
        "incremental": spec.get("incremental", True),
    }
    if spec["kind"] == "kfailure":
        # Every knob that changes the exploration's verdict must key the
        # cache, or two different sweeps would collide on one slot.
        fields["kfailure"] = {
            "k": spec.get("k", 1),
            "prefix": spec.get("prefix"),
            "devices": spec.get("devices"),
            "vrf": spec.get("vrf", "global"),
            "fail_links": spec.get("fail_links", True),
            "fail_routers": spec.get("fail_routers", False),
            "max_scenarios": spec.get("max_scenarios"),
            "cold": spec.get("cold", False),
            "stop_on_first": spec.get("stop_on_first", False),
        }
    return fields


def _materialize_plan(spec: Dict[str, Any], flows_available: bool):
    plan_data = dict(spec["plan"])
    if spec["kind"] == "whatif":
        plan_data.setdefault("change_type", "topology-adjustment")
        plan_data.setdefault("name", "what-if")
        if not any(
            plan_data.get(key)
            for key in ("rcl_intents", "reachability_intents", "path_intents",
                        "no_overload")
        ):
            plan_data["rcl_intents"] = ["PRE = POST"]
    return plan_from_json(plan_data, flows_available=flows_available)


def execute_spec(
    spec: Dict[str, Any],
    state: HotState,
    push_event: PushEvent = _noop_push,
    cancel_check: CancelCheck = _never_cancelled,
) -> Dict[str, Any]:
    """Run one job spec to completion; returns the result dict.

    Raises :class:`JobCancelled` when ``cancel_check`` turns true at a
    checkpoint, and propagates execution errors (e.g.
    :class:`~repro.distsim.TaskFailed`) for the scheduler to record.
    """
    kind = spec["kind"]
    if kind == "sleep":
        return _run_sleep(spec, push_event, cancel_check)

    model_hash, snapshot = state.load_snapshot(spec["snapshot_path"])
    cache_key = state.result_key(model_hash, _request_fingerprint_fields(spec))
    if not spec.get("no_cache", False):
        cached = state.result_get(cache_key)
        if cached is not None:
            cached["cache"] = "hit"
            cached["model_hash"] = model_hash
            return cached

    ctx = RunContext("job")
    unsubscribe = ctx.subscribe(
        lambda event: push_event(
            {
                "event": "span",
                "name": event["name"],
                "duration_seconds": event["duration_seconds"],
                "meta": {k: str(v) for k, v in event["meta"].items()},
            }
        )
    )
    try:
        if kind == "simulate":
            result = _run_simulate(spec, state, model_hash, snapshot, ctx)
        elif kind == "kfailure":
            result = _run_kfailure(
                spec, state, model_hash, snapshot, ctx, cancel_check
            )
        else:
            result = _run_verify(
                spec, state, model_hash, snapshot, ctx, cancel_check
            )
    finally:
        unsubscribe()
    result["cache"] = "miss"
    result["model_hash"] = model_hash
    result["counters"] = {
        name: value
        for name, value in ctx.counters().items()
        if not name.startswith("memory.")
    }
    if not spec.get("no_cache", False):
        state.result_put(cache_key, result)
    return result


def _prepared_entry(
    spec: Dict[str, Any],
    state: HotState,
    model_hash: str,
    snapshot: Dict[str, Any],
    ctx: RunContext,
):
    """The model's verifier entry, base-prepared (once) under its lock."""
    entry = state.verifier_for(
        model_hash,
        snapshot,
        backend=spec.get("backend", "centralized"),
        incremental=spec.get("incremental", True),
    )
    entry.lock.acquire()
    try:
        if not entry.prepared:
            entry.verifier.prepare_base(ctx=ctx)
            entry.prepared = True
    except BaseException:
        entry.lock.release()
        raise
    return entry  # caller releases entry.lock


def _run_verify(
    spec: Dict[str, Any],
    state: HotState,
    model_hash: str,
    snapshot: Dict[str, Any],
    ctx: RunContext,
    cancel_check: CancelCheck,
) -> Dict[str, Any]:
    plan = _materialize_plan(spec, flows_available=bool(snapshot.get("flows")))
    entry = _prepared_entry(spec, state, model_hash, snapshot, ctx)
    try:
        if cancel_check():
            raise JobCancelled()
        report = entry.verifier.verify(plan, ctx=ctx)
    finally:
        entry.lock.release()
    fingerprint = rib_fingerprint(report.updated_world.device_ribs).hex()
    return {
        "kind": spec["kind"],
        "plan": plan.name,
        "verdict": "pass" if report.ok else "risk",
        "ok": report.ok,
        "summary": report.summary(),
        "rib_fingerprint": fingerprint,
        "intents_checked": len(report.intent_results),
        "intents_violated": len(report.violated),
        "incremental_mode": (
            report.incremental.mode if report.incremental is not None else None
        ),
        "elapsed_seconds": round(report.elapsed_seconds, 6),
    }


def _run_simulate(
    spec: Dict[str, Any],
    state: HotState,
    model_hash: str,
    snapshot: Dict[str, Any],
    ctx: RunContext,
) -> Dict[str, Any]:
    entry = _prepared_entry(spec, state, model_hash, snapshot, ctx)
    try:
        world = entry.verifier.base_world
    finally:
        entry.lock.release()
    result: Dict[str, Any] = {
        "kind": "simulate",
        "rib_rows": sum(
            rib.route_count() for rib in world.device_ribs.values()
        ),
        "devices": len(world.device_ribs),
        "rib_fingerprint": rib_fingerprint(world.device_ribs).hex(),
    }
    if world.traffic is not None:
        result["loaded_links"] = len(world.traffic.loads)
    return result


def _run_kfailure(
    spec: Dict[str, Any],
    state: HotState,
    model_hash: str,
    snapshot: Dict[str, Any],
    ctx: RunContext,
    cancel_check: CancelCheck,
) -> Dict[str, Any]:
    from repro.kfailure import reachability_property

    routes = snapshot["routes"]
    prefix = spec.get("prefix") or (
        str(routes[0].route.prefix) if routes else None
    )
    if prefix is None:
        raise ValueError("kfailure jobs need a 'prefix' or snapshot routes")
    devices = spec.get("devices") or sorted(snapshot["model"].devices)
    cold = spec.get("cold", False)
    entry = state.kfailure_for(
        model_hash,
        snapshot,
        backend=spec.get("backend", "centralized"),
        fail_links=spec.get("fail_links", True),
        fail_routers=spec.get("fail_routers", False),
        max_scenarios=spec.get("max_scenarios"),
        warm=not cold,
        prune=not cold,
        stop_on_first_violation=spec.get("stop_on_first", False),
    )
    with entry.lock:
        if cancel_check():
            raise JobCancelled()
        result = entry.engine.check(
            spec.get("k", 1),
            reachability_property(prefix, devices, vrf=spec.get("vrf", "global")),
            ctx=ctx,
        )
    return {
        "kind": "kfailure",
        "k": spec.get("k", 1),
        "prefix": prefix,
        "mode": entry.engine.mode_name,
        "verdict": "pass" if result.ok else "risk",
        "ok": result.ok,
        "summary": result.summary(),
        "scenarios_total": result.scenarios_total,
        "scenarios_checked": result.scenarios_checked,
        "scenarios_simulated": result.scenarios_simulated,
        "scenarios_pruned": result.scenarios_pruned,
        "coverage": result.coverage,
        "truncated": result.truncated,
        "early_exited": result.early_exited,
        "violations": [str(v) for v in result.violations[:20]],
        "elapsed_seconds": round(result.elapsed_seconds, 6),
    }


def _run_sleep(
    spec: Dict[str, Any], push_event: PushEvent, cancel_check: CancelCheck
) -> Dict[str, Any]:
    seconds = float(spec.get("seconds", 0.1))
    deadline = time.monotonic() + seconds
    beats = 0
    while True:
        if cancel_check():
            raise JobCancelled()
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        time.sleep(min(0.05, remaining))
        beats += 1
        if beats % 10 == 0:
            push_event({"event": "heartbeat", "beats": beats})
    return {"kind": "sleep", "slept_seconds": seconds, "heartbeats": beats}


class JobRunner:
    """Binds :func:`execute_spec` to one daemon's hot state."""

    def __init__(self, state: Optional[HotState] = None) -> None:
        self.state = state if state is not None else HotState()

    def run(
        self,
        spec: Dict[str, Any],
        push_event: PushEvent = _noop_push,
        cancel_check: CancelCheck = _never_cancelled,
    ) -> Dict[str, Any]:
        return execute_spec(spec, self.state, push_event, cancel_check)


__all__ = ["JobCancelled", "JobRunner", "execute_spec"]
