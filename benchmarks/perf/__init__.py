"""Perf-regression harness for the simulation core.

Times the three hot layers on small/medium synthetic WANs and writes
``BENCH_perf.json`` at the repo root:

* **route-sim** — one ``RouteSimulator.simulate`` pass (the BGP fixpoint
  dominates), small and medium WAN;
* **traffic-sim** — ``TrafficSimulator.simulate`` over a converged WAN,
  with the data-plane flags on vs. off.

Run ``python -m benchmarks.perf`` to regenerate the report, or
``python -m benchmarks.perf --smoke`` (CI) to run the quick subset and fail
if the small-WAN case regressed more than 2x against the committed report.

All timings use ``time.process_time()`` (CPU time — immune to scheduler
noise on shared machines) and keep the best of several repeats. The
numbers in ``seed_baseline`` were measured against the pre-optimization
seed revision with a stricter protocol (alternating fresh interpreters per
revision); see ``docs/performance.md``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro import perfopts
from repro.exec import CentralizedBackend, RouteSimRequest
from repro.obs import RunContext
from repro.traffic import TrafficSimulator
from repro.workload.flows import generate_flows
from repro.workload.routes import generate_input_routes
from repro.workload.wan import WanParams, generate_wan

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
REPORT_PATH = REPO_ROOT / "BENCH_perf.json"

#: Measured against the seed revision (commit cef375e) with alternating
#: fresh-process A/B runs, best-of-3 ``process_time`` per process, four
#: pairs per scenario, on the 1-core reference box. The harness cannot
#: re-run the seed code, so the numbers are recorded here with their
#: provenance; "optimized" columns are from the same protocol on this
#: revision and are re-measurable with the scenarios below.
SEED_BASELINE: Dict[str, Any] = {
    "commit": "cef375e",
    "method": (
        "alternating fresh-process A/B (seed worktree vs this revision), "
        "time.process_time(), best-of-3 per process, 4 pairs"
    ),
    "route_sim_medium": {
        "seed_seconds": [0.887, 0.909, 0.788, 0.753],
        "optimized_seconds": [0.412, 0.423, 0.394, 0.402],
        "speedup_mean": 2.05,
    },
    "distributed_route_e2e_threads": {
        "seed_seconds": [0.283, 0.258],
        "optimized_seconds": [0.196, 0.206],
        "speedup_mean": 1.35,
    },
    # Data-plane fast path: measured against the pre-fastpath revision
    # (commit 49ce56f) with the same alternating fresh-process protocol,
    # traffic_sim_medium scenario (regions=3, 120 prefixes, 1500 flows).
    # LinkLoadMap totals were byte-identical across revisions in every pair.
    "traffic_sim_medium": {
        "baseline_commit": "49ce56f",
        "baseline_seconds": [0.637, 0.581, 0.686, 0.713],
        "optimized_seconds": [0.262, 0.247, 0.269, 0.259],
        "speedup_mean": 2.52,
    },
}


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


# -- scenarios -----------------------------------------------------------------


def _phase_seconds(ctx: RunContext, names: Tuple[str, ...]) -> Dict[str, float]:
    """Per-phase wall-clock breakdown from the run's span tree."""
    return {
        name: round(sum(span.duration for span in ctx.root.find_all(name)), 4)
        for name in names
        if ctx.root.find(name) is not None
    }


def bench_route_sim(regions: int, n_prefixes: int, repeats: int) -> Dict[str, Any]:
    """One full route-simulation pass on a synthetic WAN."""
    model, inventory = generate_wan(WanParams(regions=regions, seed=7))
    inputs = generate_input_routes(inventory, n_prefixes=n_prefixes, seed=7)
    backend = CentralizedBackend()
    last: Dict[str, Any] = {}

    def run():
        ctx = RunContext("bench")
        outcome = backend.run_routes(
            RouteSimRequest(model=model, inputs=inputs, include_local_inputs=True),
            ctx,
        )
        last["ctx"] = ctx
        return outcome

    seconds, outcome = _best_of(run, repeats)
    return {
        "seconds": round(seconds, 4),
        "regions": regions,
        "prefixes": n_prefixes,
        "messages": outcome.result.bgp.stats.messages,
        "rounds": outcome.result.bgp.stats.rounds,
        "phases_seconds": _phase_seconds(
            last["ctx"], ("bgp_fixpoint", "assemble_ribs")
        ),
    }


def bench_traffic_sim(
    regions: int, n_prefixes: int, n_flows: int, repeats: int
) -> Dict[str, Any]:
    """Traffic simulation over a converged WAN, fast path on vs. off.

    Route simulation runs once outside the timed region; each timed run
    builds a fresh :class:`TrafficSimulator` (fresh forwarding engine, no
    carried-over memo tables) and simulates the full flow set —
    EC reduction, spread forwarding, load aggregation. The flags-off run
    exercises the interpreted scans the fast path replaces, and both runs
    must agree byte-for-byte on the link loads.
    """
    model, inventory = generate_wan(WanParams(regions=regions, seed=7))
    inputs = generate_input_routes(inventory, n_prefixes=n_prefixes, seed=7)
    flows = generate_flows(inventory, inputs, n_flows=n_flows, seed=7)
    backend = CentralizedBackend()
    outcome = backend.run_routes(
        RouteSimRequest(model=model, inputs=inputs, include_local_inputs=True)
    )
    last: Dict[str, Any] = {}

    def run():
        ctx = RunContext("bench")
        sim = TrafficSimulator(model, outcome.device_ribs, outcome.igp)
        result = sim.simulate(flows, ctx=ctx)
        last["ctx"] = ctx
        return result

    with perfopts.configured(topo_index=False, spread_memo=False):
        unoptimized, check_off = _best_of(run, repeats)
    optimized, check_on = _best_of(run, repeats)
    assert check_on.loads.loads == check_off.loads.loads, (
        "fast-path flags changed link loads"
    )
    return {
        "optimized_seconds": round(optimized, 4),
        "unoptimized_seconds": round(unoptimized, 4),
        "speedup": round(unoptimized / optimized, 2) if optimized else None,
        "regions": regions,
        "prefixes": n_prefixes,
        "flows": n_flows,
        "flow_ecs": len(check_on.ec_index.classes),
        "phases_seconds": _phase_seconds(
            last["ctx"], ("traffic.compile", "traffic.forward", "traffic.merge")
        ),
    }


def bench_serve_warm(
    regions: int, n_prefixes: int, n_flows: int, repeats: int
) -> Dict[str, Any]:
    """Warm daemon-state verify vs. cold one-shot (the serve hot path).

    The cold arm is what ``repro verify`` does on every invocation: build a
    fresh :class:`ChangeVerifier`, pay ``prepare_base`` (base simulation +
    snapshots), then verify. The warm arm is what the daemon does for a
    repeated request: hash the snapshot file, hit the result cache keyed by
    (model hash, request fingerprint), return the recorded verdict. Both
    arms must agree byte-for-byte on verdict and ``rib_fingerprint`` —
    asserted on every report run.
    """
    import pickle
    import tempfile

    from repro.core import ChangeVerifier
    from repro.core.planjson import plan_from_json
    from repro.distsim import rib_fingerprint
    from repro.serve.runner import execute_spec
    from repro.serve.state import HotState

    model, inventory = generate_wan(WanParams(regions=regions, seed=7))
    inputs = generate_input_routes(inventory, n_prefixes=n_prefixes, seed=8)
    flows = generate_flows(inventory, inputs, n_flows=n_flows, seed=9)
    plan_data = {
        "name": "serve-warm",
        "change_type": "static-route-modification",
        "rcl_intents": ["PRE = POST"],
    }

    handle = tempfile.NamedTemporaryFile(suffix=".pkl", delete=False)
    try:
        pickle.dump(
            {"model": model, "routes": inputs, "flows": flows},
            handle,
            protocol=4,
        )
        handle.close()

        def cold():
            verifier = ChangeVerifier(model, inputs, flows)
            return verifier.verify(plan_from_json(dict(plan_data)))

        cold_seconds, report = _best_of(cold, repeats)

        state = HotState()
        spec = {
            "kind": "verify",
            "snapshot_path": handle.name,
            "plan": plan_data,
        }
        execute_spec(spec, state)  # warm-up: pays prepare_base once

        def warm():
            return execute_spec(spec, state)

        warm_seconds, warm_result = _best_of(warm, repeats)
        assert warm_result["cache"] == "hit", "expected a result-cache hit"
        fingerprint = rib_fingerprint(report.updated_world.device_ribs).hex()
        assert warm_result["rib_fingerprint"] == fingerprint, (
            "daemon and one-shot verify disagree on the updated world"
        )
        assert warm_result["verdict"] == ("pass" if report.ok else "risk")
    finally:
        handle.close()
        os.unlink(handle.name)
    return {
        "cold_one_shot_seconds": round(cold_seconds, 4),
        "warm_daemon_seconds": round(warm_seconds, 6),
        "speedup": (
            round(cold_seconds / warm_seconds, 1) if warm_seconds else None
        ),
        "regions": regions,
        "prefixes": n_prefixes,
        "flows": n_flows,
        "fingerprint": warm_result["rib_fingerprint"][:16],
        "note": (
            "identical request + identical snapshot content; warm arm is a "
            "result-cache hit against the daemon's hot state, verdict and "
            "rib_fingerprint byte-identical to the cold one-shot run"
        ),
    }


# -- the large tier ------------------------------------------------------------


def _run_large_child(
    scenario: str,
    preset: str,
    prefixes: int,
    flows: int,
    flags: str,
) -> Dict[str, Any]:
    """One variant in a fresh interpreter (see ``_large_child`` docstring)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "benchmarks.perf._large_child",
            "--scenario",
            scenario,
            "--preset",
            preset,
            "--prefixes",
            str(prefixes),
            "--flows",
            str(flows),
            "--flags",
            flags,
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def bench_large(
    scenario: str, preset: str = "large", prefixes: int = 200, flows: int = 4000
) -> Dict[str, Any]:
    """A/B one large scenario: perf flags on vs. off, fresh process each.

    Wall clock (one pass — at this scale run-to-run noise is far below the
    effects measured) and true per-variant peak RSS, which is impossible
    in-process because ``ru_maxrss`` never shrinks. Asserts the two
    variants' result fingerprints are byte-identical — the optimization
    layers' semantic-transparency contract, enforced on every report run.
    """
    optimized = _run_large_child(scenario, preset, prefixes, flows, "on")
    unoptimized = _run_large_child(scenario, preset, prefixes, flows, "off")
    assert optimized["fingerprint"] == unoptimized["fingerprint"], (
        f"perf flags changed {scenario} results on preset {preset}"
    )
    out: Dict[str, Any] = {
        "preset": preset,
        "prefixes": prefixes,
        "optimized_seconds": optimized["seconds"],
        "unoptimized_seconds": unoptimized["seconds"],
        "speedup": (
            round(unoptimized["seconds"] / optimized["seconds"], 2)
            if optimized["seconds"]
            else None
        ),
        "optimized_peak_rss_bytes": optimized["peak_rss_bytes"],
        "unoptimized_peak_rss_bytes": unoptimized["peak_rss_bytes"],
        "rss_reduction": (
            round(unoptimized["peak_rss_bytes"] / optimized["peak_rss_bytes"], 2)
            if optimized["peak_rss_bytes"]
            else None
        ),
        "fingerprint": optimized["fingerprint"][:16],
    }
    if scenario == "traffic":
        out["flows"] = flows
        out["flow_ecs"] = optimized.get("flow_ecs")
    else:
        out["rib_rows"] = optimized.get("rib_rows")
    return out


#: Acceptance floor: the shared-fixpoint k-failure engine (warm-start
#: deltas + equivalence-class pruning) must beat cold exhaustive
#: re-simulation this much on the all-2-link-failure medium-WAN sweep,
#: with byte-identical verdicts and violation sets.
KFAILURE_SPEEDUP_FLOOR = 3.0


def _kfailure_verdict_fingerprint(result) -> str:
    """SHA-256 over everything the equivalence contract pins."""
    import hashlib

    canonical = repr(
        (
            result.ok,
            result.scenarios_checked,
            result.truncated,
            [
                (v.failed_links, v.failed_routers, tuple(v.violations))
                for v in result.violations
            ],
        )
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def bench_kfailure_sweep(
    params: Optional[WanParams] = None,
    n_prefixes: int = 80,
    max_links: int = 14,
    k: int = 2,
    preset: str = "medium",
) -> Dict[str, Any]:
    """A/B one all-≤k-link-failure sweep: cold exhaustive vs warm+pruned.

    Both arms run in-process over the same bounded link universe: every
    member of the first three inter-region trunk bundles plus a stride
    sample of intra-region links (WAN generation is deterministic, so the
    universe is stable across runs). Bundled trunks are the realistic case
    — production WAN trunks are LAGs, so most member failures are routing
    no-ops and member pairs are interchangeable, exactly the structure
    equivalence-class pruning exploits. The cold arm re-simulates the full
    network for every scenario; the warm arm solves the base fixpoint once
    and replays each scenario as a blast-bounded delta, deduped by
    equivalence class. Verdict fingerprints must be byte-identical — the
    engine's contract, enforced on every report run.
    """
    from repro.kfailure import KFailureEngine, reachability_property

    if params is None:
        params = WanParams(regions=4, seed=7, trunk_members=3)
    model, inventory = generate_wan(params)
    routes = generate_input_routes(inventory, n_prefixes=n_prefixes, seed=8)
    all_links = list(model.topology.links)
    members = max(1, params.trunk_members)
    trunk_links = [ln for ln in all_links if ln.igp_cost >= 30][: 3 * members]
    intra_links = [ln for ln in all_links if ln.igp_cost < 30]
    remaining = max(0, max_links - len(trunk_links))
    stride = max(1, len(intra_links) // remaining) if remaining else 1
    links = trunk_links + intra_links[::stride][:remaining]
    prefix = str(routes[0].route.prefix)
    devices = sorted(model.devices)[:8]
    prop = reachability_property(prefix, devices)

    def arm(warm: bool):
        engine = KFailureEngine(
            model, routes, warm=warm, prune=warm, links=links
        )
        started = time.process_time()
        result = engine.check(k, prop, ctx=RunContext("bench"))
        return time.process_time() - started, result

    cold_seconds, cold = arm(False)
    warm_seconds, warm = arm(True)
    cold_fp = _kfailure_verdict_fingerprint(cold)
    warm_fp = _kfailure_verdict_fingerprint(warm)
    assert warm_fp == cold_fp, (
        f"warm+pruned k-failure verdicts diverged from cold on {preset}"
    )
    return {
        "preset": preset,
        "prefixes": n_prefixes,
        "k": k,
        "links": len(links),
        "trunk_members": members,
        "scenarios": cold.scenarios_checked,
        "coverage": cold.coverage,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": (
            round(cold_seconds / warm_seconds, 2) if warm_seconds else None
        ),
        "scenarios_simulated": warm.scenarios_simulated,
        "scenarios_pruned": warm.scenarios_pruned,
        "violating_scenarios": len(cold.violations),
        "fingerprint": cold_fp[:16],
        "note": (
            "cold re-simulates the full WAN per scenario; warm replays "
            "blast-bounded deltas against one shared base fixpoint. "
            f">={KFAILURE_SPEEDUP_FLOOR}x floor enforced by "
            "--kfailure-smoke."
        ),
    }


def check_kfailure_smoke(scenario: Dict[str, Any]) -> list:
    """CI gate for the k-failure A/B: the speedup floor must hold."""
    failures = []
    speedup = scenario.get("speedup")
    if speedup is None:
        failures.append("kfailure_sweep: missing speedup")
    elif speedup < KFAILURE_SPEEDUP_FLOOR:
        failures.append(
            f"kfailure_sweep.speedup: {speedup}x < "
            f"{KFAILURE_SPEEDUP_FLOOR}x floor over cold enumeration"
        )
    return failures


def run_large_benchmarks(
    preset: str = "large", prefixes: int = 200, flows: int = 4000
) -> Dict[str, Any]:
    """The standing large tier: route + traffic at ``preset`` scale.

    The ``large_smoke`` suite additionally runs the k-failure scenario.
    """
    suffix = "large_smoke" if preset == "large_smoke" else "large"
    scenarios = {
        f"route_sim_{suffix}": bench_large("route", preset, prefixes, flows),
        f"traffic_sim_{suffix}": bench_large("traffic", preset, prefixes, flows),
    }
    if preset == "large_smoke":
        kfailure_params = WanParams.large_smoke()
        kfailure_params.trunk_members = 3
        scenarios["kfailure_sweep_large_smoke"] = bench_kfailure_sweep(
            params=kfailure_params,
            n_prefixes=60,
            max_links=12,
            k=1,
            preset="large_smoke",
        )
    return scenarios


def check_large_smoke(
    current: Dict[str, Any],
    committed: Optional[Dict[str, Any]],
    rss_threshold: float = 1.2,
) -> list:
    """CI gate for the large-smoke tier: peak RSS must not regress >20%.

    Compares ``optimized_peak_rss_bytes`` of every ``*_large_smoke``
    scenario in ``current`` against the committed report's recorded
    baseline. Returns failure strings (empty = pass).
    """
    failures = []
    if committed is None:
        return failures
    for name, data in current.items():
        if not name.endswith("_large_smoke"):
            continue
        baseline = committed.get("scenarios", {}).get(name)
        if baseline is None:
            continue
        now = data.get("optimized_peak_rss_bytes")
        then = baseline.get("optimized_peak_rss_bytes")
        if not now or not then:
            continue
        if now > then * rss_threshold:
            failures.append(
                f"{name}.optimized_peak_rss_bytes: {now} > "
                f"{rss_threshold}x committed {then}"
            )
    return failures


# -- report --------------------------------------------------------------------


def run_benchmarks(smoke: bool = False, large: bool = False) -> Dict[str, Any]:
    repeats = 2 if smoke else 3
    scenarios: Dict[str, Any] = {
        "route_sim_small": bench_route_sim(2, 50, repeats),
        "traffic_sim_small": bench_traffic_sim(2, 40, 300, repeats),
        "serve_warm_small": bench_serve_warm(2, 40, 300, repeats),
    }
    if not smoke:
        scenarios["route_sim_medium"] = bench_route_sim(4, 200, repeats)
        scenarios["traffic_sim_medium"] = bench_traffic_sim(3, 120, 1500, repeats)
        scenarios["serve_warm"] = bench_serve_warm(3, 120, 1500, repeats)
        scenarios["kfailure_sweep_medium"] = bench_kfailure_sweep()
    if large:
        scenarios.update(run_large_benchmarks(preset="large_smoke"))
        scenarios.update(run_large_benchmarks(preset="large"))
        scenarios["scaling_curve"] = {
            "note": (
                "wall-clock and peak RSS across WAN sizes (flags on); "
                "small/medium seconds are CPU-time best-of-N from the "
                "scenarios above, large is one fresh-process wall-clock pass"
            ),
            "route_sim": {
                "small": scenarios["route_sim_small"]["seconds"],
                "medium": scenarios["route_sim_medium"]["seconds"],
                "large": scenarios["route_sim_large"]["optimized_seconds"],
            },
            "traffic_sim": {
                "small": scenarios["traffic_sim_small"]["optimized_seconds"],
                "medium": scenarios["traffic_sim_medium"]["optimized_seconds"],
                "large": scenarios["traffic_sim_large"]["optimized_seconds"],
            },
        }
    return {
        "meta": {
            "generated_by": "python -m benchmarks.perf"
            + (" --smoke" if smoke else ""),
            "python": platform.python_version(),
            "cpu_cores": os.cpu_count(),
            "timing": "time.process_time(), best-of-%d" % repeats,
            "smoke": smoke,
        },
        "seed_baseline": SEED_BASELINE,
        "scenarios": scenarios,
    }


def write_report(report: Dict[str, Any], path: pathlib.Path = REPORT_PATH) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")


def load_report(path: pathlib.Path = REPORT_PATH) -> Optional[Dict[str, Any]]:
    if not path.exists():
        return None
    return json.loads(path.read_text())


def check_smoke(
    current: Dict[str, Any], committed: Optional[Dict[str, Any]], threshold: float = 2.0
) -> list:
    """Regression check for CI: current runtimes vs. the committed report.

    Returns a list of failure strings (empty = pass). Only scenarios present
    in both reports are compared, so the smoke subset works against a full
    report.
    """
    failures = []
    if committed is None:
        return failures  # first run: nothing to compare against
    for name, data in current["scenarios"].items():
        if name.startswith("serve_warm"):
            # Hard floor from the serve acceptance criteria, not a relative
            # check: a warm daemon answer must beat the cold one-shot >=5x.
            speedup = data.get("speedup")
            if speedup is not None and speedup < 5.0:
                failures.append(
                    f"{name}.speedup: {speedup}x < 5.0x warm-over-cold floor"
                )
        baseline = committed.get("scenarios", {}).get(name)
        if baseline is None:
            continue
        for field in ("seconds", "optimized_seconds"):
            now = data.get(field)
            then = baseline.get(field)
            if now is None or then is None or then <= 0:
                continue
            if now > then * threshold:
                failures.append(
                    f"{name}.{field}: {now:.4f}s > {threshold}x committed "
                    f"{then:.4f}s"
                )
    return failures
