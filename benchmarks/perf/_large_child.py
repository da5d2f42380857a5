"""Fresh-process worker for the large benchmark tier.

``ru_maxrss`` is a process-lifetime high-water mark — it only ever grows —
so comparing the peak RSS of two variants (perf flags on vs. off) inside
one interpreter is meaningless: the second variant inherits the first's
peak. The large tier therefore runs **each variant in its own child
process**: the parent (:func:`benchmarks.perf.bench_large`) launches this
module once per variant and reads one JSON object from stdout::

    python -m benchmarks.perf._large_child \
        --scenario route --preset large --prefixes 200 --flags off

Output keys: ``seconds`` (wall clock of the simulate call), ``peak_rss_bytes``
(RUSAGE_SELF high-water mark), ``fingerprint`` (the canonical
``rib_fingerprint`` hex digest for route scenarios, a load-map digest for
traffic — the parent asserts variants agree byte-for-byte), plus scenario
detail (``rib_rows`` / ``flow_ecs``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from repro import perfopts
from repro.distsim.chaos import rib_fingerprint
from repro.exec import CentralizedBackend, RouteSimRequest
from repro.obs import peak_rss_bytes
from repro.traffic import TrafficSimulator
from repro.workload.flows import generate_flows
from repro.workload.routes import generate_input_routes
from repro.workload.wan import WanParams, generate_wan

#: Preset name -> WanParams factory (scales the large tier without new code).
PRESETS = {
    "large": WanParams.large,
    "large_smoke": WanParams.large_smoke,
    "paper_scale": WanParams.paper_scale,
}


def _load_digest(loads) -> str:
    """Canonical digest of a LinkLoadMap (sorted repr of (link, volume))."""
    digest = hashlib.sha256()
    for key in sorted(loads.loads, key=repr):
        digest.update(repr((key, loads.loads[key])).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def run_route(params: WanParams, n_prefixes: int) -> dict:
    """One centralized route-sim pass."""
    model, inventory = generate_wan(params)
    inputs = generate_input_routes(inventory, n_prefixes=n_prefixes, seed=7)
    started = time.perf_counter()
    outcome = CentralizedBackend().run_routes(
        RouteSimRequest(model=model, inputs=inputs, include_local_inputs=True)
    )
    seconds = time.perf_counter() - started
    return {
        "seconds": round(seconds, 4),
        "fingerprint": rib_fingerprint(outcome.device_ribs).hex(),
        "rib_rows": sum(r.route_count() for r in outcome.device_ribs.values()),
    }


def run_traffic(params: WanParams, n_prefixes: int, n_flows: int) -> dict:
    model, inventory = generate_wan(params)
    inputs = generate_input_routes(inventory, n_prefixes=n_prefixes, seed=7)
    flows = generate_flows(inventory, inputs, n_flows=n_flows, seed=7)
    outcome = CentralizedBackend().run_routes(
        RouteSimRequest(model=model, inputs=inputs, include_local_inputs=True)
    )
    simulator = TrafficSimulator(model, outcome.device_ribs, outcome.igp)
    started = time.perf_counter()
    result = simulator.simulate(flows)
    seconds = time.perf_counter() - started
    return {
        "seconds": round(seconds, 4),
        "fingerprint": _load_digest(result.loads),
        "flow_ecs": len(result.ec_index.classes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf._large_child")
    parser.add_argument(
        "--scenario", choices=("route", "traffic"), required=True
    )
    parser.add_argument("--preset", choices=sorted(PRESETS), default="large")
    parser.add_argument("--prefixes", type=int, default=200)
    parser.add_argument("--flows", type=int, default=4000)
    parser.add_argument(
        "--flags",
        choices=("on", "off"),
        default="on",
        help="perf flags: 'off' disables every optimization for the A/B base",
    )
    args = parser.parse_args(argv)

    params = PRESETS[args.preset]()
    if args.flags == "off":
        import dataclasses

        for field in dataclasses.fields(perfopts.PerfOptions):
            setattr(perfopts.OPTS, field.name, False)
    if args.scenario == "route":
        payload = run_route(params, args.prefixes)
    else:
        payload = run_traffic(params, args.prefixes, args.flows)
    payload["peak_rss_bytes"] = peak_rss_bytes()
    payload["flags"] = args.flags
    payload["preset"] = args.preset
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
