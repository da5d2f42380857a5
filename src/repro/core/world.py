"""The simulated state of one network model.

Promoted out of the pipeline: a :class:`World` bundles a model with its
simulated device RIBs, global RIB, and (optional) traffic result. It is the
unit the verifier compares — base world vs updated world — and the shape
downstream consumers (equivalence harness, benchmarks, localization) work
with through ``VerificationReport.updated_world``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.model import NetworkModel
from repro.routing.rib import DeviceRib, GlobalRibView
from repro.traffic.simulator import TrafficSimulationResult


@dataclass
class World:
    """Simulated state of one network model."""

    model: NetworkModel
    device_ribs: Dict[str, DeviceRib]
    global_rib: GlobalRibView
    traffic: Optional[TrafficSimulationResult]
