"""Daily configuration auditing (§6.2).

Each day Hoyan simulates the live configurations and runs dozens of
auditing tasks — high-level invariants the network should always hold.
The built-in tasks mirror the paper's examples: prefix consistency inside
router groups, cross-vendor policy-reference hygiene (undefined filters
trigger VSBs), and isolation/static sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.net.model import NetworkModel
from repro.routing.rib import DeviceRib

AuditCheck = Callable[[NetworkModel, Dict[str, DeviceRib]], List[str]]


@dataclass
class AuditResult:
    name: str
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        status = "OK " if self.ok else "FAIL"
        lines = [f"[{status}] audit {self.name}"]
        lines.extend(f"    {p}" for p in self.problems[:10])
        return "\n".join(lines)


def audit_group_prefix_consistency(
    model: NetworkModel, ribs: Dict[str, DeviceRib]
) -> List[str]:
    """All routers in a redundancy group should hold the same prefixes."""
    problems: List[str] = []
    groups: Dict[str, List[str]] = {}
    for router in model.topology.routers:
        if router.group:
            groups.setdefault(router.group, []).append(router.name)
    for group, members in sorted(groups.items()):
        if len(members) < 2:
            continue
        prefix_sets = {}
        for member in members:
            rib = ribs.get(member)
            rows = rib.all_rows() if rib else ()
            # A member's own direct routes (loopback, interface subnets)
            # legitimately differ inside a group; compare learned routes.
            prefix_sets[member] = frozenset(
                str(row.route.prefix)
                for row in rows
                if row.route.protocol != "direct"
            )
        reference = prefix_sets[members[0]]
        for member in members[1:]:
            if prefix_sets[member] != reference:
                missing = reference - prefix_sets[member]
                extra = prefix_sets[member] - reference
                problems.append(
                    f"group {group}: {member} differs from {members[0]} "
                    f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})"
                )
    return problems


def audit_policy_references(
    model: NetworkModel, ribs: Dict[str, DeviceRib]
) -> List[str]:
    """Session policies and filters referenced by name must be defined.

    Typos in filter names trigger undefined-definition VSBs (§6.1's
    "incorrect commands" risk class), so dangling references are audited
    directly from the configs.
    """
    problems: List[str] = []
    for name, device in sorted(model.devices.items()):
        ctx = device.policy_ctx
        for peer in device.peers:
            for direction, policy_name in (
                ("import", peer.import_policy),
                ("export", peer.export_policy),
            ):
                if policy_name is not None and policy_name not in ctx.policies:
                    problems.append(
                        f"{name}: peer {peer.peer} {direction} policy "
                        f"{policy_name!r} is undefined"
                    )
        for policy in ctx.policies.values():
            for node in policy.nodes:
                for clause in node.matches:
                    defined = {
                        "prefix-list": ctx.prefix_lists,
                        "community-list": ctx.community_lists,
                        "aspath-list": ctx.aspath_lists,
                    }.get(clause.kind)
                    if defined is not None and clause.value not in defined:
                        problems.append(
                            f"{name}: policy {policy.name!r} node {node.seq} "
                            f"references undefined {clause.kind} {clause.value!r}"
                        )
    return problems


def audit_static_nexthop_resolvable(
    model: NetworkModel, ribs: Dict[str, DeviceRib]
) -> List[str]:
    """Static route next hops should be owned by a known router."""
    problems = []
    for name, device in sorted(model.devices.items()):
        for static in device.statics.values():
            owner = model.owner_of_address(static.nexthop)
            if owner is None:
                problems.append(
                    f"{name}: static {static.prefix} nexthop {static.nexthop} "
                    f"is owned by no router"
                )
    return problems


def audit_no_isolated_transit(
    model: NetworkModel, ribs: Dict[str, DeviceRib]
) -> List[str]:
    """Isolated devices must not be the only path between their neighbors."""
    problems = []
    for name, device in sorted(model.devices.items()):
        if not device.isolated:
            continue
        neighbors = [other for other, _ in model.topology.neighbors(name)]
        scenario = model.copy()
        scenario.topology.fail_router(name)
        from repro.routing.isis import compute_igp

        igp = compute_igp(scenario)
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1 :]:
                if not igp.reachable(a, b):
                    problems.append(
                        f"{name} is isolated but is the only path {a}<->{b}"
                    )
    return problems


BUILTIN_AUDITS: Dict[str, AuditCheck] = {
    "group-prefix-consistency": audit_group_prefix_consistency,
    "policy-references-defined": audit_policy_references,
    "static-nexthops-resolvable": audit_static_nexthop_resolvable,
    "isolated-devices-not-transit": audit_no_isolated_transit,
}


class Auditor:
    """Runs auditing tasks on the simulated base network."""

    def __init__(self, model: NetworkModel, ribs: Dict[str, DeviceRib]) -> None:
        self.model = model
        self.ribs = ribs
        self.checks: Dict[str, AuditCheck] = dict(BUILTIN_AUDITS)

    def register(self, name: str, check: AuditCheck) -> None:
        self.checks[name] = check

    def run(self, names: Optional[Sequence[str]] = None) -> List[AuditResult]:
        selected = names if names is not None else sorted(self.checks)
        results = []
        for name in selected:
            check = self.checks[name]
            results.append(AuditResult(name=name, problems=check(self.model, self.ribs)))
        return results
