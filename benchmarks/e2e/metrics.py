"""Names, units, directions and bounds of every metric — the one place.

``BENCHMARK.json`` at the repository root is generated from this module
(``python -m benchmarks.e2e manifest``) and a test keeps the two equal, so
a metric cannot be printed under one name and gated under another.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: fixed order: the memory high-water mark of one process is confounded by
#: what ran before, so a full run confounds it identically on every commit
WORKLOADS: List[Tuple[str, str]] = [
    (
        "change_small",
        "bounded-blast changes on a prepared 48-router WAN: incremental splice "
        "pays off, BGP does almost nothing, traffic and RCL intent checks dominate",
    ),
    (
        "change_widened",
        "topology and IGP changes on the same verifier: blast analysis is paid, "
        "then discarded for a full warm-process re-simulation",
    ),
    (
        "kfailure_sweep",
        "k=1 link-failure sweep on a trunked WAN without flows or intents: only "
        "the k-failure engine (blast, class pruning, per-scenario splice) works",
    ),
    (
        "base_cold",
        "cold base simulation of a 96-router WAN, the daily pre-processing run: "
        "the BGP fixpoint does most of the work and no intent is checked",
    ),
]

#: (name, unit, better, bound). Bounds are a share of the parent's median.
#: One bound serves all four workloads, so the timings carry three times
#: the widest ten-seed spread measured on the 2-vCPU sandbox this benchmark
#: was defined on (8.4 %, ``base_cold``; see README, "Steadiness"),
#: which is the contract's cap.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("verdict_p50_s", "s", "lower", 0.25),
    ("verdict_p80_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_op", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

_HIGHER_IS_BETTER = {
    "incremental.useful_share",
    "ec.flow_reduction",
    "kfailure.pruned_share",
    "kfailure.scenarios_pruned",
}

_PER_LAYER_NAMES = [
    "workload.generate_s",
    "net.config.build_updated_model_s",
    "net.config.commands",
    "routing.isis.compute_igp_s",
    "routing.isis.calls",
    "routing.inputs.build_local_s",
    "routing.bgp.fixpoint_s",
    "routing.bgp.fixpoint_share",
    "routing.bgp.messages",
    "routing.bgp.rounds",
    "routing.bgp.inputs",
    "routing.bgp.inputs_share",
    "routing.simulator.assemble_ribs_s",
    "routing.rib.global_rib_s",
    "routing.rib.rows",
    "exec.run_routes_self_s",
    "exec.run_traffic_self_s",
    "incremental.analyze_s",
    "incremental.splice_s",
    "incremental.snapshot_base_s",
    "incremental.widened_share",
    "incremental.affected_prefixes",
    "incremental.spliced_slots",
    "incremental.changed_slots",
    "incremental.useful_share",
    "ec.flow_ecs_s",
    "ec.flow_ecs",
    "ec.flow_reduction",
    "traffic.simulate_s",
    "traffic.self_s",
    "traffic.share",
    "traffic.flows",
    "core.intents.check_s",
    "core.intents.share",
    "core.intents.checked",
    "core.intents.violated",
    "rcl.parse_s",
    "rcl.verify_s",
    "rcl.specs",
    "core.pipeline.self_s",
    "core.pipeline.self_share",
    "kfailure.prepare_s",
    "kfailure.check_s",
    "kfailure.blast_s",
    "kfailure.scenarios_total",
    "kfailure.scenarios_simulated",
    "kfailure.scenarios_pruned",
    "kfailure.pruned_share",
    "kfailure.violating_scenarios",
    "trace.overhead_share",
]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("share") or name == "ec.flow_reduction":
        return "ratio"
    return "count"


#: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    (name, _unit(name), "higher" if name in _HIGHER_IS_BETTER else "lower")
    for name in _PER_LAYER_NAMES
]

#: seconds one driver run measures for
RUN_SECONDS = 10


def manifest() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
