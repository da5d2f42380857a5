"""Result types and property helpers for k-failure exploration.

These are the API-stable types :class:`~repro.kfailure.KFailureEngine`
returns and consumes: the per-scenario violation, the run's result, and
the property helpers callers pass to ``check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from repro.net.model import NetworkModel

#: property(model, simulation) -> list of violation strings. ``simulation``
#: exposes the property protocol (``device_ribs`` + ``global_rib()``); with
#: warm-started exploration it is the spliced outcome, not a raw
#: ``SimulationResult``, so properties must not reach for ``.bgp``.
PropertyCheck = Callable[[NetworkModel, object], List[str]]


@dataclass
class KFailureViolation:
    """One failure scenario that breaks the property."""

    failed_links: Tuple[Tuple[str, str], ...]
    failed_routers: Tuple[str, ...]
    violations: List[str]

    def __str__(self) -> str:
        parts = []
        if self.failed_links:
            parts.append(f"links={['-'.join(l) for l in self.failed_links]}")
        if self.failed_routers:
            parts.append(f"routers={list(self.failed_routers)}")
        return f"failure scenario ({', '.join(parts)}): {self.violations[:3]}"


@dataclass
class KFailureResult:
    """Outcome of one exploration, including exact coverage accounting.

    ``scenarios_checked`` counts the scenarios whose verdict was evaluated
    (the legacy field); ``scenarios_total`` is the full ≤k scenario-space
    size, so ``coverage`` makes a bounded run impossible to misread as a
    full pass. ``scenarios_simulated`` counts actual fixpoint solves —
    every other evaluated scenario shared a simulation with an
    equivalence-class representative (``scenarios_pruned``) or reused the
    base solve outright.
    """

    scenarios_checked: int
    violations: List[KFailureViolation] = field(default_factory=list)
    truncated: bool = False
    elapsed_seconds: float = 0.0
    scenarios_total: int = 0
    scenarios_simulated: int = 0
    scenarios_pruned: int = 0
    coverage: float = 1.0
    early_exited: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.violations)} violating scenarios"
        parts = [
            f"{self.scenarios_checked}/{self.scenarios_total} scenarios "
            f"({self.coverage:.1%} coverage)",
            f"{self.scenarios_simulated} simulated",
            f"{self.scenarios_pruned} pruned",
        ]
        if self.early_exited:
            parts.append("stopped at first violation")
        elif self.truncated:
            parts.append("truncated by max_scenarios")
        return f"{verdict}: " + ", ".join(parts)


def reachability_property(
    prefix: str, devices: Sequence[str], vrf: str = "global"
) -> PropertyCheck:
    """Property: the prefix stays reachable on the given devices."""
    from repro.net.addr import as_prefix

    target = as_prefix(prefix)

    def prop(model: NetworkModel, simulation) -> List[str]:
        problems = []
        for device in devices:
            if not model.topology.router_is_up(device):
                continue  # the device itself failed; not a routing problem
            rib = simulation.device_ribs.get(device)
            if rib is None or not rib.routes_for(target, vrf):
                problems.append(f"{device} lost {target}")
        return problems

    return prop
