"""Change-plan corpus generation (substitute for operators' change requests).

Produces correct change plans and faulty variants whose defects reproduce
the Table-6 root-cause classes of real change risks detected by Hoyan in
2024:

* ``incorrect-commands`` (37.5%) — typos in filter names (triggering
  undefined-definition VSBs), wrong prefix masks/communities, or commands
  in the wrong vendor's dialect;
* ``design-flaws`` (34.4%) — inappropriate IS-IS costs / preferences that
  steer traffic the wrong way;
* ``existing-misconfiguration`` (15.6%) — a latent defect on an untouched
  router that the change activates (the Figure 10(a) pattern);
* ``topology-issues`` (6.3%) — a failed link the planner did not know about.

Each :class:`GeneratedChange` carries the plan, optional base-model
preparation (for latent misconfigurations / failed links), the injected
root cause (None for correct plans), and whether verification is expected
to flag a risk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.change_plan import ChangePlan
from repro.core.intents import PrefixReaches, RclIntent
from repro.net.addr import Prefix
from repro.net.model import NetworkModel
from repro.routing.inputs import InputRoute, inject_external_route
from repro.workload.wan import WanInventory

#: Table 6 root causes and percentages.
ROOT_CAUSES = {
    "incorrect-commands": 37.5,
    "design-flaws": 34.4,
    "existing-misconfiguration": 15.6,
    "topology-issues": 6.3,
    "others": 6.2,
}


@dataclass
class GeneratedChange:
    plan: ChangePlan
    #: Table-6 root cause injected, or None for a correct plan
    root_cause: Optional[str]
    expect_risk: bool
    #: mutation applied to the base model before verification (latent
    #: misconfigurations, pre-existing failures)
    prepare_base: Optional[Callable[[NetworkModel], None]] = None
    extra_input_routes: List[InputRoute] = field(default_factory=list)


def _border_vendor_dialect(model: NetworkModel, border: str) -> str:
    return model.device(border).vendor_name


def _isp_of(model: NetworkModel, border: str) -> str:
    """The external ISP router peering with this border.

    Routes must be injected at the ISP so the border's import policy (the
    one the change edits) actually processes them.
    """
    device = model.device(border)
    for peer in device.peers:
        if peer.remote_asn != device.asn:
            return peer.peer
    raise ValueError(f"border {border!r} has no external peer")


def _community_rewrite_commands(
    dialect: str, policy: str, node: int, plist: str, community: str
) -> List[str]:
    if dialect == "vendor-a":
        return [
            f"route-map {policy} permit {node}",
            f" match ip prefix-list {plist}",
            f" set community {community}",
        ]
    return [
        f"route-policy {policy} permit node {node}",
        f" if-match ip-prefix {plist}",
        f" apply community {community}",
    ]


def _prefix_list_commands(dialect: str, name: str, prefix: str) -> List[str]:
    address, _, length = prefix.partition("/")
    if dialect == "vendor-a":
        return [f"ip prefix-list {name} permit {prefix}"]
    return [f"ip ip-prefix {name} index 10 permit {address} {length}"]


def make_community_rewrite(
    model: NetworkModel,
    inventory: WanInventory,
    index: int,
    root_cause: Optional[str],
    rng: random.Random,
) -> GeneratedChange:
    """Route-attributes-modification: retag C1-routes with C2 on a border."""
    border = inventory.borders[index % len(inventory.borders)]
    dialect = _border_vendor_dialect(model, border)
    target_prefix = f"100.{64 + index % 32}.{index % 250}.0/24"
    plist, policy = f"RETAG-PL-{index}", "ISP-IN"
    new_comm = "64999:77"

    commands = _prefix_list_commands(dialect, plist, target_prefix)
    commands += _community_rewrite_commands(dialect, policy, 5, plist, new_comm)

    if root_cause == "incorrect-commands":
        # Typo in the prefix-list reference: the node references an
        # undefined filter, triggering the undefined-filter VSB — on
        # vendor-a the node matches EVERY route and retags it.
        commands = _community_rewrite_commands(
            dialect, policy, 5, plist + "-TYPO", new_comm
        )

    intents = [
        # The change effect: the border's target-prefix routes now carry
        # the new community.
        RclIntent(
            f"prefix = {target_prefix} and device = {border} => "
            f"POST || (communities contains {new_comm}) |> count() >= 1"
        ),
        # "others do not change": no route outside the target prefix may
        # carry the new community.
        RclIntent(
            f"not prefix = {target_prefix} => "
            f"POST || (communities contains {new_comm}) |> count() = 0"
        ),
    ]
    isp = _isp_of(model, border)
    extra = [
        inject_external_route(isp, target_prefix, (65030 + index,)),
        inject_external_route(
            isp, f"100.{96 + index % 16}.0.0/16", (65040 + index,)
        ),
    ]
    return GeneratedChange(
        plan=ChangePlan(
            name=f"community-rewrite-{index}",
            change_type="route-attributes-modification",
            device_commands={border: commands},
            intents=intents,
        ),
        root_cause=root_cause,
        expect_risk=root_cause is not None,
        extra_input_routes=extra,
    )


def make_prefix_announcement(
    model: NetworkModel,
    inventory: WanInventory,
    index: int,
    root_cause: Optional[str],
    rng: random.Random,
) -> GeneratedChange:
    """New prefix announcement: the target prefix must reach the RRs."""
    border = inventory.borders[index % len(inventory.borders)]
    prefix = f"198.51.{index % 250}.0/24"
    announced = prefix
    if root_cause == "incorrect-commands":
        # Wrong prefix mask in the announcement (a /25 of the intent's /24).
        announced = f"198.51.{index % 250}.128/25"

    region = model.topology.router(border).region
    prepare = None
    if root_cause == "existing-misconfiguration":
        # A latent import filter on one RR silently drops the new prefix.
        rr = f"{region}-rr0"

        def prepare(base: NetworkModel, rr=rr, prefix=prefix) -> None:
            device = base.edit(rr)
            ctx = device.policy_ctx
            block = ctx.define_policy("LATENT-BLOCK")
            block.node(10, "deny").match("prefix", Prefix.parse(prefix))
            block.node(20, "permit")
            for peer in device.peers:
                peer.import_policy = "LATENT-BLOCK"

    # The intent covers the injection region's RRs (where the latent filter
    # can bite) plus the first RRs globally.
    targets = sorted(
        set([f"{region}-rr0", f"{region}-rr1"] + inventory.rrs[:2])
    )
    return GeneratedChange(
        plan=ChangePlan(
            name=f"announce-{index}",
            change_type="new-prefix-announcement",
            new_input_routes=[
                inject_external_route(border, announced, (65070 + index,))
            ],
            intents=[PrefixReaches(prefix, targets)],
        ),
        root_cause=root_cause,
        expect_risk=root_cause is not None,
        prepare_base=prepare,
    )


def make_prefix_reclamation(
    model: NetworkModel,
    inventory: WanInventory,
    index: int,
    root_cause: Optional[str],
    rng: random.Random,
) -> GeneratedChange:
    """Prefix reclamation: the target prefix must disappear everywhere."""
    border = inventory.borders[index % len(inventory.borders)]
    prefix = f"100.{64 + index % 32}.{index % 250}.0/24"
    extra = [inject_external_route(_isp_of(model, border), prefix, (65050 + index,))]
    dialect = _border_vendor_dialect(model, border)
    plist = f"RECLAIM-{index}"
    commands = _prefix_list_commands(dialect, plist, prefix)
    if dialect == "vendor-a":
        commands += [
            "route-map ISP-IN deny 5",
            f" match ip prefix-list {plist}",
        ]
    else:
        commands += [
            "route-policy ISP-IN deny node 5",
            f" if-match ip-prefix {plist}",
        ]
    if root_cause == "incorrect-commands":
        # Wrong community/prefix value: the deny filters a different /24.
        wrong = f"100.{64 + (index + 1) % 32}.{(index + 1) % 250}.0/24"
        commands = _prefix_list_commands(dialect, plist, wrong) + commands[1:]

    devices = inventory.rrs[:2] + [border]
    return GeneratedChange(
        plan=ChangePlan(
            name=f"reclaim-{index}",
            change_type="prefix-reclamation",
            device_commands={border: commands},
            intents=[PrefixReaches(prefix, devices, expect_present=False)],
        ),
        root_cause=root_cause,
        expect_risk=root_cause is not None,
        extra_input_routes=extra,
    )


def make_isis_cost_steering(
    model: NetworkModel,
    inventory: WanInventory,
    index: int,
    root_cause: Optional[str],
    rng: random.Random,
) -> GeneratedChange:
    """Topology adjustment via IS-IS costs: drain a core router.

    The intent is that flows avoid the drained core; the design-flaw
    variant raises the cost in the wrong direction (towards the alternate
    path), concentrating traffic on the router instead.
    """
    region = f"region{index % len(inventory.regions)}"
    members = inventory.regions[region]
    cores = [m for m in members if "core" in m]
    if len(cores) < 2:
        raise ValueError("scenario needs two cores per region")
    drained, alternate = cores[0], cores[1]
    rr = f"{region}-rr0"

    if root_cause == "design-flaws":
        # Wrong direction: penalize the *alternate* instead of the drain
        # target, steering flows onto the router being drained.
        commands = {rr: [f"isis cost {alternate} 1000"]}
    else:
        commands = {rr: [f"isis cost {drained} 1000"]}

    prepare = None
    if root_cause == "topology-issues":
        # The planner assumes the RR has redundant exits, but every uplink
        # except the one through the core being drained has already failed
        # — the drain change then has no usable alternate path.
        def prepare(base: NetworkModel, rr=rr, drained=drained) -> None:
            for link in list(base.topology.links_of(rr)):
                if link.other_end(rr).router != drained:
                    base.topology.fail_link(link)

    return GeneratedChange(
        plan=ChangePlan(
            name=f"drain-{index}",
            change_type="topology-adjustment",
            device_commands=commands,
            intents=[
                # Flows entering at the region's RR must not transit the
                # drained core.
                _AvoidViaIgp(rr, drained),
            ],
        ),
        root_cause=root_cause,
        expect_risk=root_cause is not None,
        prepare_base=prepare,
    )


class _AvoidViaIgp:
    """Intent: the RR's IGP next hops never point at the drained core."""

    def __init__(self, rr: str, drained: str) -> None:
        self.rr = rr
        self.drained = drained

    def describe(self) -> str:
        return f"{self.rr} stops using {self.drained} as an IGP next hop"

    def evaluate(self, ctx):
        from repro.core.intents import IntentResult
        from repro.routing.isis import compute_igp

        igp = compute_igp(ctx.updated_model)
        offenders = [
            dst
            for dst in ctx.updated_model.device_names
            if dst != self.drained
            and self.drained in igp.hops_towards(self.rr, dst)
        ]
        return IntentResult(
            self.describe(),
            not offenders,
            [f"{self.rr} still reaches {d} via {self.drained}" for d in offenders[:5]],
        )


TEMPLATES = [
    make_community_rewrite,
    make_prefix_announcement,
    make_prefix_reclamation,
    make_isis_cost_steering,
]

#: which templates can express each root cause
_CAUSE_TEMPLATES = {
    "incorrect-commands": [make_community_rewrite, make_prefix_announcement,
                           make_prefix_reclamation],
    "design-flaws": [make_isis_cost_steering],
    "existing-misconfiguration": [make_prefix_announcement],
    "topology-issues": [make_isis_cost_steering],
    "others": [make_prefix_announcement],
}


def generate_change_corpus(
    model: NetworkModel,
    inventory: WanInventory,
    n_risky: int = 32,
    n_correct: int = 8,
    seed: int = 17,
) -> List[GeneratedChange]:
    """Generate a corpus whose root causes follow the Table-6 distribution."""
    rng = random.Random(seed)
    corpus: List[GeneratedChange] = []
    causes = list(ROOT_CAUSES)
    weights = [ROOT_CAUSES[c] for c in causes]
    index = 0
    for _ in range(n_risky):
        cause = rng.choices(causes, weights=weights)[0]
        template_cause = cause if cause != "others" else "incorrect-commands"
        template = rng.choice(_CAUSE_TEMPLATES[template_cause])
        change = template(model, inventory, index, template_cause, rng)
        change.root_cause = cause
        corpus.append(change)
        index += 1
    for _ in range(n_correct):
        template = rng.choice(TEMPLATES)
        corpus.append(template(model, inventory, index, None, rng))
        index += 1
    return corpus
