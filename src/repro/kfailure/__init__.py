"""Shared-fixpoint k-failure exploration (§6.2).

Public surface of the k-failure engine, which replaced an exhaustive
per-scenario checker: solve the base fixpoint once, bound every failure
scenario's blast radius against it, dedupe scenarios into equivalence
classes by their blast key, and solve each surviving class once as a warm
delta.
"""

from repro.kfailure.blast import (
    ClassKey,
    FailureBlastAnalyzer,
    ScenarioEffect,
)
from repro.kfailure.engine import KFailureEngine
from repro.kfailure.result import (
    KFailureResult,
    KFailureViolation,
    PropertyCheck,
    reachability_property,
)
from repro.kfailure.scenarios import (
    FailureScenario,
    apply_scenario,
    enumerate_scenarios,
    scenario_space_size,
)

__all__ = [
    "ClassKey",
    "FailureBlastAnalyzer",
    "FailureScenario",
    "KFailureEngine",
    "KFailureResult",
    "KFailureViolation",
    "PropertyCheck",
    "ScenarioEffect",
    "apply_scenario",
    "enumerate_scenarios",
    "reachability_property",
    "scenario_space_size",
]
