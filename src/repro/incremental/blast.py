"""Blast-radius analysis: which prefixes can a model delta actually move?

Given a :class:`~repro.incremental.diff.ModelDiff`, this module computes a
conservative *affected prefix space*: a set of prefixes such that every
RIB slot whose prefix is **not** contained in the space is guaranteed to be
byte-identical between the base and updated simulations. The incremental
engine then re-simulates only input routes inside the space and splices the
result into the unaffected base state.

Why a prefix space works: the BGP fixpoint is per-prefix independent — a
slot ``(device, vrf, prefix)`` draws candidates only from input routes,
adj-in deliveries, VRF leaks (same prefix), and aggregate derivations
(contributors inside the aggregate prefix). Session liveness and IGP costs
depend only on topology and IS-IS configuration, which the analyzer refuses
to treat narrowly (it widens instead). The one cross-prefix channel —
aggregation — is handled by a closure rule: any aggregate prefix (in base or
updated model) overlapping the space is pulled into the space, to a
fixpoint, so contributors and suppressed more-specifics travel together.

When a delta is not analyzable (topology ops, peer/VRF/IS-IS edits, policy
nodes without a prefix constraint, community/as-path list edits, ...) the
analyzer **widens to full**: the engine falls back to a complete
re-simulation. Widening can cost performance, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.incremental.diff import DeviceDelta, ModelDiff
from repro.net.addr import Prefix, family_bits
from repro.net.device import DeviceConfig
from repro.net.model import NetworkModel
from repro.net.policy import PolicyContext, PolicyNode
from repro.routing.inputs import build_local_inputs_for_device

#: Sections whose deltas the analyzer never tries to narrow. Identity and
#: IS-IS move session liveness / IGP costs; peers and VRFs move the session
#: graph and leak matrix; SR policies steer traffic through arbitrary state.
WIDEN_SECTIONS: FrozenSet[str] = frozenset({"identity", "peers", "vrfs", "isis", "sr"})

#: Sections that affect traffic simulation but not route propagation.
TRAFFIC_ONLY_SECTIONS: FrozenSet[str] = frozenset({"acls", "pbr"})


@dataclass
class BlastRadius:
    """The affected prefix space of a change, or a widen-to-full verdict."""

    #: True when the analyzer could not bound the change: the engine must
    #: fall back to full re-simulation.
    widened: bool = False
    #: Human-readable reasons for widening (empty when not widened).
    reasons: Tuple[str, ...] = ()
    #: The affected prefix space (post aggregate closure).
    affected_prefixes: Tuple[Prefix, ...] = ()
    #: True when an IPv4 prefix list changed on a vendor whose ``ip-prefix``
    #: lists match IPv6 routes (§6.1 VSB): every IPv6 prefix is affected.
    include_all_v6: bool = False
    #: True when ACL/PBR (traffic-only) configuration changed.
    traffic_affected: bool = False
    #: Devices with configuration deltas (informational; splice-level
    #: affected-device stats are derived from covered slots).
    changed_devices: FrozenSet[str] = frozenset()

    #: per (family, length) of the space: (family, length, host bits,
    #: network values), built on the first ``covers`` call
    _groups: Optional[List[Tuple[int, int, int, Set[int]]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def is_empty(self) -> bool:
        """No routing-visible change: base RIBs can be reused wholesale."""
        return not (self.widened or self.affected_prefixes or self.include_all_v6)

    def covers(self, prefix: Prefix) -> bool:
        """Whether a RIB slot at ``prefix`` may differ from the base run.

        One masked probe per prefix length the space holds: cheaper than
        a memo lookup, so callers that ask again need no cache.
        """
        if self.widened:
            return True
        if self.include_all_v6 and prefix.family == 6:
            return True
        groups = self._groups
        if groups is None:
            values: Dict[Tuple[int, int], Set[int]] = {}
            for space_prefix in self.affected_prefixes:
                key = (space_prefix.family, space_prefix.length)
                values.setdefault(key, set()).add(space_prefix.value)
            groups = self._groups = [
                (family, length, family_bits(family) - length, networks)
                for (family, length), networks in values.items()
            ]
        family, length, value = prefix.family, prefix.length, prefix.value
        for space_family, space_length, shift, networks in groups:
            if (
                family == space_family
                and length >= space_length
                and value >> shift << shift in networks
            ):
                return True
        return False

    def summary(self) -> str:
        if self.widened:
            return "widened to full: " + "; ".join(self.reasons)
        if self.is_empty:
            extra = " (traffic-only change)" if self.traffic_affected else ""
            return "no routing-visible change" + extra
        parts = [f"{len(self.affected_prefixes)} affected prefixes"]
        if self.include_all_v6:
            parts.append("all IPv6")
        if self.changed_devices:
            parts.append(f"{len(self.changed_devices)} changed devices")
        return ", ".join(parts)


def changed(before: Dict, after: Dict) -> List:
    """The keys of ``before`` and ``after`` whose entries differ (an entry
    one side lacks differs), ``before``'s keys first."""
    return [key for key in {**before, **after} if before.get(key) != after.get(key)]


def _node_prefix_constraint(
    node: PolicyNode, ctx: PolicyContext
) -> Optional[Tuple[List[Prefix], bool]]:
    """Prefix constraint of one policy node, or None if unconstrained.

    Match clauses are ANDed, so any single prefix-valued clause bounds the
    routes the node can match. Returns ``(prefixes, crosses_to_v6)`` where
    ``crosses_to_v6`` flags the IPv4-list-matches-IPv6 vendor behaviour.
    """
    for clause in node.matches:
        if clause.kind == "prefix":
            return [clause.value], False
        if clause.kind == "prefix-list":
            plist = ctx.prefix_lists.get(clause.value)
            if plist is None:
                # Undefined list: the VSB may make the clause match
                # everything — not a constraint.
                continue
            crosses = plist.family == 4 and ctx.vendor.ip_prefix_permits_ipv6
            return [entry.prefix for entry in plist.entries], crosses
    return None


class _SpaceBuilder:
    """Accumulates affected prefixes / widen reasons during analysis."""

    def __init__(self) -> None:
        self.prefixes: Set[Prefix] = set()
        self.reasons: List[str] = []
        self.include_all_v6 = False

    def widen(self, reason: str) -> None:
        self.reasons.append(reason)

    @property
    def widened(self) -> bool:
        return bool(self.reasons)


def _analyze_policy_delta(
    device: str, base_cfg: DeviceConfig, updated_cfg: DeviceConfig, out: _SpaceBuilder
) -> None:
    """Narrow a route-policy delta to the prefixes it can move."""
    base_ctx = base_cfg.policy_ctx
    updated_ctx = updated_cfg.policy_ctx

    # Community / as-path filters select on attributes orthogonal to the
    # prefix — a change to them cannot be bounded by a prefix set.
    if changed(base_ctx.community_lists, updated_ctx.community_lists):
        out.widen(f"{device}: community-list change is not prefix-analyzable")
    if changed(base_ctx.aspath_lists, updated_ctx.aspath_lists):
        out.widen(f"{device}: as-path-list change is not prefix-analyzable")
    if base_ctx.aspath_fullmatch != updated_ctx.aspath_fullmatch:
        out.widen(f"{device}: as-path match semantics changed")

    # Prefix-list edits: only routes inside the old or new entries can see a
    # different match outcome (``PrefixListEntry.matches`` requires
    # containment regardless of ge/le).
    for name in changed(base_ctx.prefix_lists, updated_ctx.prefix_lists):
        old = base_ctx.prefix_lists.get(name)
        new = updated_ctx.prefix_lists.get(name)
        for plist, ctx in ((old, base_ctx), (new, updated_ctx)):
            if plist is None:
                continue
            out.prefixes.update(entry.prefix for entry in plist.entries)
            if plist.family == 4 and ctx.vendor.ip_prefix_permits_ipv6:
                out.include_all_v6 = True

    # Route-map node edits: with first-matching-node semantics, a route that
    # matches neither the old nor the new version of every changed node takes
    # the same path through the policy. So each changed node (both versions)
    # must be prefix-constrained; its constraint joins the space.
    for name in set(base_ctx.policies) | set(updated_ctx.policies):
        old_policy = base_ctx.policies.get(name)
        new_policy = updated_ctx.policies.get(name)
        if old_policy is None or new_policy is None:
            # Adding or removing a whole policy flips the undefined-policy
            # VSB for every route on sessions referencing it.
            out.widen(f"{device}: policy {name!r} added or removed")
            continue
        old_nodes = {node.seq: node for node in old_policy.nodes}
        new_nodes = {node.seq: node for node in new_policy.nodes}
        seqs = changed(old_nodes, new_nodes)
        moved = [(old_nodes[seq], base_ctx) for seq in seqs if seq in old_nodes] + [
            (new_nodes[seq], updated_ctx) for seq in seqs if seq in new_nodes
        ]
        for node, ctx in moved:
            constraint = _node_prefix_constraint(node, ctx)
            if constraint is None:
                out.widen(
                    f"{device}: policy {name!r} node {node.seq} has no "
                    "prefix constraint"
                )
                continue
            node_prefixes, crosses_v6 = constraint
            out.prefixes.update(node_prefixes)
            if crosses_v6:
                out.include_all_v6 = True


def _analyze_device_delta(
    delta: DeviceDelta,
    base: NetworkModel,
    updated: NetworkModel,
    out: _SpaceBuilder,
) -> bool:
    """Contribute one device's delta to the space. Returns traffic_affected."""
    base_cfg = base.devices[delta.device]
    updated_cfg = updated.devices[delta.device]
    traffic = bool(delta.sections & TRAFFIC_ONLY_SECTIONS)

    for section in sorted(delta.sections & WIDEN_SECTIONS):
        out.widen(f"{delta.device}: {section} change is not prefix-analyzable")

    # A static or aggregate key whose entry differs moves the entry's prefix.
    for section in delta.sections & {"statics", "aggregates"}:
        before, after = getattr(base_cfg, section), getattr(updated_cfg, section)
        out.prefixes.update(
            (before.get(key) or after[key]).prefix for key in changed(before, after)
        )

    if "policies" in delta.sections:
        _analyze_policy_delta(delta.device, base_cfg, updated_cfg, out)

    if delta.sections & {"statics", "redistributions", "policies"}:
        # Locally originated inputs may move (redistributed statics/directs,
        # possibly filtered by an edited redistribution policy). Recompute
        # both sides for this one device and diff exactly.
        base_locals = set(build_local_inputs_for_device(base, base_cfg))
        updated_locals = set(build_local_inputs_for_device(updated, updated_cfg))
        out.prefixes.update(
            item.route.prefix for item in base_locals ^ updated_locals
        )

    return traffic


def blast_radius_for_prefixes(
    prefixes: Iterable[Prefix],
    models: Sequence[NetworkModel],
    changed_devices: FrozenSet[str] = frozenset(),
) -> BlastRadius:
    """A narrowed :class:`BlastRadius` over an explicit prefix set.

    Entry point for analyzers that bound the affected space themselves —
    the k-failure engine derives it from session deaths and IGP movement
    rather than from a config diff — while reusing this module's aggregate
    closure (the only cross-prefix propagation channel) and ``covers``.
    """
    space = aggregate_closure(set(prefixes), False, models)
    return BlastRadius(
        affected_prefixes=tuple(sorted(space, key=lambda p: p.ordering_key())),
        changed_devices=changed_devices,
    )


def aggregate_closure(
    prefixes: Set[Prefix], include_all_v6: bool, models: Sequence[NetworkModel]
) -> Set[Prefix]:
    """Close the space over aggregation (the only cross-prefix channel).

    Any aggregate prefix overlapping the space is added to it, iterated to a
    fixpoint: contributors (more-specifics inside the aggregate), suppressed
    routes under ``summary-only``, and nested aggregates all become covered.
    """
    aggregate_prefixes: Set[Prefix] = set()
    for model in models:
        for device in model.devices.values():
            aggregate_prefixes.update(a.prefix for a in device.aggregates.values())

    space = set(prefixes)
    changed = True
    while changed:
        changed = False
        for agg_prefix in aggregate_prefixes:
            if agg_prefix in space:
                continue
            if (include_all_v6 and agg_prefix.family == 6) or any(
                agg_prefix.overlaps(p) for p in space
            ):
                space.add(agg_prefix)
                changed = True
    return space


def analyze_blast_radius(
    diff: ModelDiff, base: NetworkModel, updated: NetworkModel
) -> BlastRadius:
    """Compute the affected prefix space of a model delta (or widen)."""
    changed_devices = frozenset(diff.device_deltas)
    if diff.is_empty:
        return BlastRadius(changed_devices=changed_devices)

    out = _SpaceBuilder()
    traffic_affected = False

    if diff.topology_changed:
        out.widen("topology changed")
    if diff.devices_added:
        out.widen(f"devices added: {', '.join(sorted(diff.devices_added))}")
    if diff.devices_removed:
        out.widen(f"devices removed: {', '.join(sorted(diff.devices_removed))}")
    if diff.loopbacks_changed:
        out.widen("loopback assignments changed")

    if not out.widened:
        for delta in sorted(diff.device_deltas.values(), key=lambda d: d.device):
            if _analyze_device_delta(delta, base, updated, out):
                traffic_affected = True

    out.prefixes.update(item.route.prefix for item in diff.new_input_routes)

    if out.widened:
        return BlastRadius(
            widened=True,
            reasons=tuple(out.reasons),
            traffic_affected=traffic_affected,
            changed_devices=changed_devices,
        )

    space = aggregate_closure(out.prefixes, out.include_all_v6, (base, updated))
    return BlastRadius(
        affected_prefixes=tuple(sorted(space, key=lambda p: p.ordering_key())),
        include_all_v6=out.include_all_v6,
        traffic_affected=traffic_affected,
        changed_devices=changed_devices,
    )
