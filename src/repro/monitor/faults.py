"""Fault injection library: the Table-4 issue classes.

The paper's Table 4 reports the distribution of real accuracy issues found
by the diagnosis framework over six months, grouped in §5.3 into monitoring
data, input pre-processing, and simulation implementation classes. The text
extraction of the paper loses the row labels, so the rows here are
reconstructed from the §5.3 class descriptions; percentages are the paper's.

Each :class:`FaultSpec` knows how to inject its issue into a
:class:`HoyanSetup` — the bundle of everything on Hoyan's side of the
accuracy boundary (its parsed model, built inputs, and monitor
configuration) — without touching the ground truth, so the accuracy
validation observes exactly the discrepancy the real issue produced. Its
model shares configs with the truth, so injectors write via ``model.edit``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List

from repro.monitor.route_monitor import RouteMonitor
from repro.monitor.traffic_monitor import TrafficMonitor
from repro.net.model import NetworkModel
from repro.net.vendors import mismodel
from repro.routing.inputs import InputRoute
from repro.traffic.flow import Flow


@dataclass
class HoyanSetup:
    """Hoyan's side of the accuracy boundary, as corrupted by faults."""

    model: NetworkModel
    input_routes: List[InputRoute]
    input_flows: List[Flow]
    route_monitor: RouteMonitor
    traffic_monitor: TrafficMonitor
    max_rounds: int = 50
    notes: List[str] = field(default_factory=list)


Injector = Callable[[HoyanSetup, random.Random], str]


@dataclass(frozen=True)
class FaultSpec:
    """One Table-4 issue class."""

    name: str
    table4_class: str  # monitoring-data | input-pre-processing | simulation
    percentage: float
    description: str
    inject: Injector


def apply_fault(spec: FaultSpec, setup: HoyanSetup, seed: int = 0) -> str:
    """Inject a fault; returns a human-readable description of what broke."""
    detail = spec.inject(setup, random.Random(seed))
    setup.notes.append(f"{spec.name}: {detail}")
    return detail


# ---------------------------------------------------------------------------
# Injectors (one per reconstructed Table-4 row)
# ---------------------------------------------------------------------------


def _fail_route_agents(setup: HoyanSetup, rng: random.Random) -> str:
    devices = sorted(setup.model.device_names)
    victims = set(rng.sample(devices, max(1, len(devices) // 10)))
    setup.route_monitor.failed_agents |= victims
    return f"route agents failed on {sorted(victims)}"


def _misreport_flow_volumes(setup: HoyanSetup, rng: random.Random) -> str:
    ingresses = sorted({f.ingress for f in setup.input_flows})
    victims = set(rng.sample(ingresses, max(1, len(ingresses) // 4)))
    setup.traffic_monitor.volume_error_devices |= victims
    setup.traffic_monitor.volume_error_factor = 0.5
    return f"NetFlow volumes halved on {sorted(victims)}"


def _desync_topology(setup: HoyanSetup, rng: random.Random) -> str:
    # Prefer an eBGP-facing link: losing it takes the session down in the
    # model, so the inconsistency has unambiguous routing consequences.
    links = setup.model.topology.links
    ebgp_links = [
        l
        for l in links
        if (a := setup.model.devices.get(l.a.router)) is not None
        and (b := setup.model.devices.get(l.b.router)) is not None
        and a.asn != b.asn
    ]
    pool = ebgp_links or links
    victim = pool[rng.randrange(len(pool))]
    setup.model.topology.remove_link(victim)
    return f"topology feed lost link {victim}"


def _flawed_config_parsing(setup: HoyanSetup, rng: random.Random) -> str:
    # A buggy parser dropped every filter-list definition on some devices:
    # policies referencing them now hit the undefined-filter VSB (on one
    # vendor a dangling deny filter matches everything).
    def has_filters(name: str) -> bool:
        ctx = setup.model.device(name).policy_ctx
        return bool(ctx.prefix_lists or ctx.community_lists or ctx.aspath_lists)

    devices = sorted(d for d in setup.model.device_names if has_filters(d))
    if not devices:
        devices = sorted(setup.model.device_names)
    victims = rng.sample(devices, max(1, len(devices) // 5))
    for name in victims:
        ctx = setup.model.edit(name).policy_ctx
        ctx.prefix_lists.clear()
        ctx.community_lists.clear()
        ctx.aspath_lists.clear()
    return f"filter-list definitions lost on {victims}"


def _flawed_input_route_building(setup: HoyanSetup, rng: random.Random) -> str:
    before = len(setup.input_routes)
    setup.input_routes[:] = [
        r for r in setup.input_routes if r.route.as_path
    ]
    dropped = before - len(setup.input_routes)
    return f"empty-AS-path rule dropped {dropped} input routes (DC aggregates)"


def _aspath_regex_bug(setup: HoyanSetup, rng: random.Random) -> str:
    victims = []
    for name in sorted(setup.model.device_names):
        if setup.model.device(name).policy_ctx.aspath_lists:
            setup.model.edit(name).policy_ctx.aspath_fullmatch = True
            victims.append(name)
    if not victims:
        # Still plant the bug broadly so the campaign exercises the path.
        for name in sorted(setup.model.device_names):
            setup.model.edit(name).policy_ctx.aspath_fullmatch = True
        victims = ["(all devices)"]
    return f"AS-path regex uses full-match semantics on {victims}"


def _unknown_vsb(setup: HoyanSetup, rng: random.Random) -> str:
    # Hoyan's model of the SR/IGP-cost interaction is wrong on every device
    # that actually configures SR policies (the Figure 9 situation).
    victims = []
    for name in sorted(setup.model.device_names):
        if setup.model.device(name).sr_policies:
            device = setup.model.edit(name)
            device.set_vendor_profile(
                mismodel(device.vendor, "sr_tunnel_zeroes_igp_cost")
            )
            victims.append(name)
    return f"SR IGP-cost VSB mismodelled on {victims[:6]}"


def _unmodeled_feature(setup: HoyanSetup, rng: random.Random) -> str:
    cleared = 0
    for name in setup.model.device_names:
        isis = setup.model.edit(name).isis
        if isis.cost_overrides:
            isis.cost_overrides.clear()
            cleared += 1
        isis.te_enabled = False
    return f"IS-IS TE cost overrides ignored on {cleared} devices"


def _convergence_divergence(setup: HoyanSetup, rng: random.Random) -> str:
    setup.max_rounds = 2
    return "simulation truncated after 2 rounds (convergence divergence)"


FAULT_LIBRARY: List[FaultSpec] = [
    FaultSpec(
        "inaccurate-route-monitoring", "monitoring-data", 23.08,
        "route monitoring agents fail and stop collecting routes",
        _fail_route_agents,
    ),
    FaultSpec(
        "inaccurate-traffic-monitoring", "monitoring-data", 19.28,
        "vendor NetFlow bug misreports flow volumes",
        _misreport_flow_volumes,
    ),
    FaultSpec(
        "inconsistent-topology-data", "monitoring-data", 11.54,
        "topology feed inconsistent with the live network",
        _desync_topology,
    ),
    FaultSpec(
        "incorrect-config-parsing", "input-pre-processing", 9.62,
        "parser drops commands for a vendor's configuration format",
        _flawed_config_parsing,
    ),
    FaultSpec(
        "incorrect-input-route-building", "input-pre-processing", 9.62,
        "input filter rule wrongly discards empty-AS-path routes",
        _flawed_input_route_building,
    ),
    FaultSpec(
        "simulation-implementation-bug", "simulation", 7.69,
        "AS-path regex matching implemented with full-match semantics",
        _aspath_regex_bug,
    ),
    FaultSpec(
        "unknown-vsb", "simulation", 5.77,
        "vendor-specific behaviour not yet modelled (Figure 9's SR VSB)",
        _unknown_vsb,
    ),
    FaultSpec(
        "unmodeled-feature", "simulation", 3.85,
        "newly introduced feature (IS-IS for TE) not yet supported",
        _unmodeled_feature,
    ),
    FaultSpec(
        "bgp-convergence-divergence", "simulation", 1.92,
        "simulation converges to a state different from the live network",
        _convergence_divergence,
    ),
]

#: The paper's residual "Others" row.
OTHERS_PERCENTAGE = 7.69


def fault_by_name(name: str) -> FaultSpec:
    for spec in FAULT_LIBRARY:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown fault {name!r}")
