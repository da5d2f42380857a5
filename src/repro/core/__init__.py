"""Hoyan's core: change plans, the change-verification pipeline, intents,
k-failure checking, and daily configuration auditing (§2.2, §6).

The public entry point is :class:`~repro.core.pipeline.ChangeVerifier`:
build it once on the pre-processed base network model (the daily
pre-processing phase), then call ``verify(plan)`` per change verification
request (the per-request phase).
"""

from repro.core.change_plan import (
    CHANGE_TYPES,
    ChangePlan,
    TopologyOp,
    add_link,
    add_router,
    fail_link,
    remove_link,
    remove_router,
)
from repro.core.intents import (
    FlowsAvoid,
    FlowsDelivered,
    FlowsMoved,
    FlowsTraverse,
    IntentResult,
    LinkLoadBelow,
    NoOverloadedLinks,
    PrefixReaches,
    RclIntent,
)
from repro.core.pipeline import ChangeVerifier, VerificationReport
from repro.core.world import World
from repro.incremental import BlastRadius, IncrementalStats, ModelDiff
from repro.core.audit import AuditResult, Auditor
from repro.core.localize import LocalizationResult, MisconfigurationLocalizer
from repro.core.completion import (
    add_no_change_guard,
    completeness_warnings,
    no_change_spec,
)

__all__ = [
    "CHANGE_TYPES",
    "ChangePlan",
    "TopologyOp",
    "add_link",
    "add_router",
    "fail_link",
    "remove_link",
    "remove_router",
    "FlowsAvoid",
    "FlowsDelivered",
    "FlowsMoved",
    "FlowsTraverse",
    "IntentResult",
    "LinkLoadBelow",
    "NoOverloadedLinks",
    "PrefixReaches",
    "RclIntent",
    "BlastRadius",
    "ChangeVerifier",
    "IncrementalStats",
    "ModelDiff",
    "VerificationReport",
    "World",
    "AuditResult",
    "Auditor",
    "LocalizationResult",
    "MisconfigurationLocalizer",
    "add_no_change_guard",
    "completeness_warnings",
    "no_change_spec",
]
