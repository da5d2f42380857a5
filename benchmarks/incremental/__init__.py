"""Incremental-verification benchmark: blast-radius-proportional cost.

Times ``ChangeVerifier.simulate_plan`` with incremental verification on vs.
off (full re-simulation) for representative change plans on a synthetic
WAN, and writes ``BENCH_incremental.json`` at the repo root:

* **single_device_policy_delta** — one border gains a route-map node over a
  new single-/24 prefix-list (the paper's "a small change should cost in
  proportion to its blast radius" case; acceptance floor: >=3x);
* **static_route_delta** — one static route added on one DC edge;
* **new_prefix_announcement** — a new external prefix announced at an ISP;
* **widened_topology_change** — a new link, which the analyzer cannot
  bound, so incremental honestly widens to a full re-simulation (~1x; kept
  as the honesty case so the report shows where the win does *not* apply).

Every scenario asserts equivalence before timing counts: the incremental
world's per-device RIB fingerprints must equal the full run's.

Run ``python -m benchmarks.incremental`` to regenerate the report on the
medium WAN, or ``python -m benchmarks.incremental --smoke`` (CI) for a
quick small-WAN pass that still writes the report artifact.

Timings use ``time.process_time()`` (CPU time, scheduler-noise immune),
best of several repeats. The base-world preparation (the paper's daily
pre-processing phase) is shared and untimed — the point of the subsystem
is precisely that per-request cost excludes it.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.change_plan import ChangePlan
from repro.core.pipeline import ChangeVerifier
from repro.obs import RunContext
from repro.routing.inputs import inject_external_route
from repro.routing.rib import device_rib_fingerprint
from repro.workload import (
    WanParams,
    generate_input_routes,
    generate_wan,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
REPORT_PATH = REPO_ROOT / "BENCH_incremental.json"

#: Acceptance floor for the headline scenario (see docs/incremental.md).
POLICY_DELTA_SPEEDUP_MIN = 3.0


def _best_of(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Best (minimum) CPU time over ``repeats`` calls, plus the last result."""
    best: Optional[float] = None
    result = None
    for _ in range(max(1, repeats)):
        started = time.process_time()
        result = fn()
        elapsed = time.process_time() - started
        if best is None or elapsed < best:
            best = elapsed
    return float(best), result


# -- world and plans -----------------------------------------------------------


def build_world(smoke: bool):
    params = (
        WanParams(regions=2, cores_per_region=3, seed=7)
        if smoke
        else WanParams(regions=4, seed=7)
    )
    model, inventory = generate_wan(params)
    routes = generate_input_routes(
        inventory, n_prefixes=48 if smoke else 160, seed=11
    )
    return model, inventory, routes


def policy_delta_plan(model, inventory, routes) -> ChangePlan:
    """One border gains a LOCAL_PREF bump for a single ISP /24."""
    border0 = inventory.borders[0]
    isp_prefix = next(
        str(r.route.prefix) for r in routes if r.router in inventory.isps
    )
    address, length = isp_prefix.split("/")
    if model.device(border0).vendor_name == "vendor-a":
        commands = [
            f"ip prefix-list LP150 permit {isp_prefix}",
            "route-map ISP-IN permit 9",
            " match prefix-list LP150",
            " set local-preference 150",
        ]
    else:
        commands = [
            f"ip ip-prefix LP150 permit {address} {length}",
            "route-policy ISP-IN permit node 9",
            " if-match ip-prefix LP150",
            " apply local-preference 150",
        ]
    return ChangePlan(
        name="lp150-single-prefix",
        change_type="route-attributes-modification",
        device_commands={border0: commands},
    )


def static_delta_plan(model, inventory, routes) -> ChangePlan:
    edge0 = inventory.dc_edges[0]
    nexthop = model.loopback_of(inventory.cores[0])
    if model.device(edge0).vendor_name == "vendor-a":
        commands = [f"ip route 172.20.0.0/16 {nexthop}"]
    else:
        commands = [f"ip route-static 172.20.0.0 16 {nexthop}"]
    return ChangePlan(
        name="one-static",
        change_type="static-route-modification",
        device_commands={edge0: commands},
    )


def new_prefix_plan(model, inventory, routes) -> ChangePlan:
    isp = inventory.isps[0]
    return ChangePlan(
        name="announce-one",
        change_type="new-prefix-announcement",
        new_input_routes=[
            inject_external_route(isp, "203.0.113.0/24", (65900, 65901))
        ],
    )


def widened_plan(model, inventory, routes) -> ChangePlan:
    from repro.core.change_plan import add_link

    return ChangePlan(
        name="add-cross-region-link",
        change_type="adding-new-links",
        topology_ops=[
            add_link(inventory.cores[0], inventory.cores[-1], cost=30)
        ],
    )


SCENARIOS: List[Tuple[str, Callable]] = [
    ("single_device_policy_delta", policy_delta_plan),
    ("static_route_delta", static_delta_plan),
    ("new_prefix_announcement", new_prefix_plan),
    ("widened_topology_change", widened_plan),
]


# -- measurement ---------------------------------------------------------------


def _fingerprints(world) -> Dict[str, str]:
    return {
        name: device_rib_fingerprint(rib)
        for name, rib in world.device_ribs.items()
    }


#: Span names whose subtree durations become the per-phase breakdown.
PHASE_SPANS = (
    "incremental.analyze",
    "incremental.splice",
    "route_sim",
    "traffic_sim",
    "bgp_fixpoint",
)


def _phase_seconds(ctx: RunContext) -> Dict[str, float]:
    return {
        name: round(sum(span.duration for span in ctx.root.find_all(name)), 4)
        for name in PHASE_SPANS
        if ctx.root.find(name) is not None
    }


def measure_scenario(
    incremental_verifier: ChangeVerifier,
    full_verifier: ChangeVerifier,
    plan: ChangePlan,
    repeats: int,
) -> Dict[str, Any]:
    last: Dict[str, RunContext] = {}

    def run(verifier: ChangeVerifier, key: str):
        ctx = RunContext("bench")
        result = verifier.simulate_plan(plan, ctx=ctx)
        last[key] = ctx
        return result

    inc_seconds, (inc_world, stats) = _best_of(
        lambda: run(incremental_verifier, "incremental"), repeats
    )
    full_seconds, (full_world, _) = _best_of(
        lambda: run(full_verifier, "full"), repeats
    )
    if _fingerprints(inc_world) != _fingerprints(full_world):
        raise AssertionError(
            f"{plan.name}: incremental result diverged from full re-simulation"
        )
    return {
        "plan": plan.name,
        "change_type": plan.change_type,
        "mode": stats.mode,
        "incremental_seconds": round(inc_seconds, 4),
        "full_seconds": round(full_seconds, 4),
        "speedup": round(full_seconds / inc_seconds, 2) if inc_seconds else None,
        "phases_seconds": {
            "incremental": _phase_seconds(last["incremental"]),
            "full": _phase_seconds(last["full"]),
        },
        "blast_radius": {
            "affected_devices": stats.affected_devices,
            "total_devices": stats.total_devices,
            "affected_prefixes": stats.affected_prefixes,
            "resimulated_inputs": stats.resimulated_inputs,
            "total_inputs": stats.total_inputs,
            "reused_devices": stats.reused_devices,
            "spliced_slots": stats.spliced_slots,
            "reused_slots": stats.reused_slots,
            "widen_reasons": list(stats.widen_reasons),
        },
    }


def run_benchmarks(smoke: bool = False) -> Dict[str, Any]:
    repeats = 2 if smoke else 3
    model, inventory, routes = build_world(smoke)

    incremental_verifier = ChangeVerifier(model, routes, incremental=True)
    full_verifier = ChangeVerifier(model, routes, incremental=False)
    incremental_verifier.prepare_base()  # untimed: daily pre-processing
    full_verifier.prepare_base()

    scenarios: Dict[str, Any] = {}
    for name, build_plan in SCENARIOS:
        plan = build_plan(model, inventory, routes)
        scenarios[name] = measure_scenario(
            incremental_verifier, full_verifier, plan, repeats
        )

    headline = scenarios["single_device_policy_delta"]["speedup"]
    return {
        "meta": {
            "generated_by": "python -m benchmarks.incremental"
            + (" --smoke" if smoke else ""),
            "python": platform.python_version(),
            "cpu_cores": os.cpu_count(),
            "timing": f"time.process_time(), best-of-{repeats}",
            "smoke": smoke,
            "wan": "regions=2, cores=3" if smoke else "regions=4 (medium)",
            "prefixes": 48 if smoke else 160,
        },
        "criterion": {
            "single_device_policy_delta_speedup_min": POLICY_DELTA_SPEEDUP_MIN,
            "measured": headline,
            "met": bool(
                headline is not None and headline >= POLICY_DELTA_SPEEDUP_MIN
            ),
        },
        "scenarios": scenarios,
    }


def write_report(report: Dict[str, Any], path: pathlib.Path = REPORT_PATH) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
