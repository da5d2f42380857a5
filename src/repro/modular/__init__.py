"""Modular (assume/guarantee) verification via region border summaries.

LIGHTYEAR-style decomposition of the global BGP fixpoint: devices are
grouped into regions (:mod:`repro.modular.regions`), each region is solved
independently over its intra-region session graph, and regions exchange
only *border summaries* — the exact route sets crossing region boundaries
(:mod:`repro.modular.summaries`). The :class:`SummaryGuidedVerifier`
(:mod:`repro.modular.verifier`) iterates the exchange to a fixpoint and
checks every region's actual exports against its claimed summary; a
violated claim yields structured counter-examples and a fall back to full
simulation, so modularity is a performance property, never a correctness
one. ``make_backend("modular")`` (:mod:`repro.exec.modular`) exposes the
whole machinery as an execution backend byte-identical to centralized.
"""

from repro.modular.regions import (
    RegionAssignment,
    assign_regions,
    split_sessions,
)
from repro.modular.summaries import (
    AttributeBounds,
    RegionSummary,
    SummaryViolation,
    diff_exports,
    summaries_equal,
    summary_fingerprint,
)
from repro.modular.verifier import (
    DEFAULT_EXCHANGE_ROUNDS,
    ModularResult,
    RegionSolver,
    SummaryGuidedVerifier,
    merge_bgp_results,
)

__all__ = [
    "AttributeBounds",
    "DEFAULT_EXCHANGE_ROUNDS",
    "ModularResult",
    "RegionAssignment",
    "RegionSolver",
    "RegionSummary",
    "SummaryGuidedVerifier",
    "SummaryViolation",
    "assign_regions",
    "diff_exports",
    "merge_bgp_results",
    "split_sessions",
    "summaries_equal",
    "summary_fingerprint",
]
