"""Incremental change verification (blast-radius-bounded re-simulation).

Makes ``ChangeVerifier.verify`` cost proportional to the blast radius of a
change plan instead of the size of the WAN: a model differ
(:mod:`repro.incremental.diff`) finds what changed, a blast-radius analyzer
(:mod:`repro.incremental.blast`) bounds the prefixes that can move (or
widens to full when it cannot), and the warm-start engine
(:mod:`repro.incremental.engine`) re-simulates only covered inputs and
splices the result into the base world's per-device RIBs, which the
verifier holds by reference.
"""

from repro.incremental.blast import (
    BlastRadius,
    TRAFFIC_ONLY_SECTIONS,
    WIDEN_SECTIONS,
    aggregate_closure,
    analyze_blast_radius,
    blast_radius_for_prefixes,
)
from repro.incremental.diff import (
    DeviceDelta,
    FORWARDING_SECTIONS,
    IGP_SECTIONS,
    LOCAL_INPUT_SECTIONS,
    ModelDiff,
    SECTIONS,
    changed_sections,
    diff_models,
)
from repro.incremental.engine import (
    IncrementalEngine,
    IncrementalStats,
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_NOOP,
    MODE_WIDENED,
    SpliceResult,
)

__all__ = [
    "BlastRadius",
    "DeviceDelta",
    "FORWARDING_SECTIONS",
    "IGP_SECTIONS",
    "IncrementalEngine",
    "IncrementalStats",
    "LOCAL_INPUT_SECTIONS",
    "MODE_FULL",
    "MODE_INCREMENTAL",
    "MODE_NOOP",
    "MODE_WIDENED",
    "ModelDiff",
    "SECTIONS",
    "SpliceResult",
    "TRAFFIC_ONLY_SECTIONS",
    "WIDEN_SECTIONS",
    "aggregate_closure",
    "analyze_blast_radius",
    "blast_radius_for_prefixes",
    "changed_sections",
    "diff_models",
]
