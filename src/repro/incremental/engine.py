"""Warm-start incremental verification: partial re-simulation plus splice.

The engine ties the subsystem together for ``ChangeVerifier``:

1. After the base simulation, :meth:`IncrementalEngine.snapshot_base`
   moves the base world into the collector's permanent generation. The
   verifier holds the base device RIBs by reference; nothing copies them.
2. Per change plan, :meth:`IncrementalEngine.analyze` produces the model
   diff and blast radius.
3. The verifier asks its backend for a warm-started run: the backend
   re-simulates only the covered input routes (order-preserving, so
   subtask grouping and candidate ordering match a full run; a widened
   radius covers every input), then :meth:`IncrementalEngine.splice`
   merges the partial result into the unaffected base state: covered
   slots come from the partial run, uncovered slots from the base RIBs.
   The splice installs only the covered slots that differ from the base
   (:func:`~repro.routing.rib.rib_diff`), and devices without one keep
   their base RIB object. The :class:`SpliceResult` names the slots it
   dropped and installed, so that the verifier patches the base global RIB
   instead of rebuilding it.

A spliced device RIB is *derived* (:meth:`DeviceRib.derive`): base VRF
tables are copied at C speed, the differing base slots deleted, the
differing partial slots appended; the radius is asked once per distinct
prefix, and only covered slots are compared, so the cost follows the
change, not the RIB. A derived RIB shares entry lists with the base and
partial RIBs; no ``DeviceRib`` method mutates one in place.

Correctness rests on the blast-radius guarantee: a slot whose prefix the
radius does not cover is byte-identical between base and updated runs, so
splicing base rows there reproduces exactly what the full run would emit.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Mapping, Set, Tuple

from repro.incremental.blast import BlastRadius, analyze_blast_radius
from repro.incremental.diff import ModelDiff, diff_models
from repro.net.addr import Prefix
from repro.net.model import NetworkModel
from repro.routing.inputs import InputRoute
from repro.routing.rib import DeviceRib, Slots, rib_diff, touched_slots

#: How a verify() call was served.
MODE_FULL = "full"  #: incremental disabled (escape hatch)
MODE_WIDENED = "widened"  #: analyzer widened to full re-simulation
MODE_INCREMENTAL = "incremental"  #: partial re-simulation + splice
MODE_NOOP = "noop"  #: no routing-visible change; base RIBs reused wholesale


@dataclass
class IncrementalStats:
    """Blast-radius and cache-hit statistics of one verify() call."""

    mode: str = MODE_FULL
    widen_reasons: Tuple[str, ...] = ()
    affected_devices: int = 0
    total_devices: int = 0
    affected_prefixes: int = 0
    resimulated_inputs: int = 0
    total_inputs: int = 0
    #: slots that differ from the base world, installed or withdrawn
    #: (what the intent check and traffic look at)
    spliced_slots: int = 0
    reused_slots: int = 0
    reused_devices: int = 0
    igp_reused: bool = False
    skipped_subtasks: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self), "widen_reasons": list(self.widen_reasons)}

    def describe(self) -> str:
        if self.mode == MODE_FULL:
            return "incremental: off (full re-simulation)"
        if self.mode == MODE_WIDENED:
            reasons = "; ".join(self.widen_reasons) or "not analyzable"
            spliced = f"spliced {self.spliced_slots} slots"
            return f"incremental: widened to full ({reasons}), {spliced}"
        if self.mode == MODE_NOOP:
            return (
                "incremental: no routing-visible change, "
                f"reused base RIBs of {self.total_devices} devices"
            )
        parts = [
            f"blast radius {self.affected_devices}/{self.total_devices} devices",
            f"{self.affected_prefixes} prefixes",
            f"re-simulated {self.resimulated_inputs}/{self.total_inputs} inputs",
            f"spliced {self.spliced_slots} slots, reused {self.reused_slots}",
        ]
        if self.skipped_subtasks:
            parts.append(f"skipped {self.skipped_subtasks} subtasks")
        if self.igp_reused:
            parts.append("IGP reused")
        return "incremental: " + ", ".join(parts)


@dataclass
class SpliceResult:
    """Spliced device RIBs plus the reuse accounting.

    ``dropped`` and ``installed`` say, for every device whose RIB is not
    the base object, which base slots the splice left out and which slots
    it took from the partial run: exactly the slots where the spliced
    world differs from the base, ``spliced_slots`` of them (``touched``).
    Everything else of the spliced world
    *is* the base world, so a consumer can patch what it derived from the
    base instead of deriving it again (``routing.rib.GlobalRibView``).
    """

    device_ribs: Dict[str, DeviceRib]
    affected_devices: int = 0
    reused_devices: int = 0
    spliced_slots: int = 0
    reused_slots: int = 0
    dropped: Dict[str, Slots] = field(default_factory=dict)
    installed: Dict[str, Slots] = field(default_factory=dict)

    @cached_property
    def touched(self) -> Dict[str, Set[Tuple[str, Prefix]]]:
        """Per device, every ``(vrf, prefix)`` that differs from the base."""
        return touched_slots(self.dropped, self.installed)


class IncrementalEngine:
    """Per-verifier incremental state: the base model plus analyze/splice."""

    def __init__(self, base_model: NetworkModel) -> None:
        self.base_model = base_model

    # -- base world ---------------------------------------------------------

    def snapshot_base(
        self, device_ribs: Mapping[str, DeviceRib], ctx=None
    ) -> None:
        """Mark the base world read-only for the cyclic collector.

        The caller keeps the base device RIBs by reference; :meth:`splice`
        installs them as they are. From here on the base world is read,
        not changed, until its owner drops it, and reference counting
        frees it then: a simulation builds no reference cycle. So
        everything alive now moves to the cyclic collector's permanent
        generation (``gc.freeze()``). Otherwise every full collection that
        a later request — or the caller's own code — triggers walks the
        whole base again and finds nothing. This acts on the whole
        process: a cycle among the caller's objects alive now that becomes
        garbage later stays until ``gc.unfreeze()``.
        """
        with (
            ctx.span("incremental.snapshot_base", devices=len(device_ribs))
            if ctx
            else nullcontext()
        ):
            gc.freeze()

    # -- analysis -----------------------------------------------------------

    def analyze(
        self,
        updated_model: NetworkModel,
        new_input_routes: Iterable[InputRoute] = (),
        ctx=None,
    ) -> Tuple[ModelDiff, BlastRadius]:
        """Diff the updated model against base and bound the blast radius."""
        with ctx.span("incremental.analyze") if ctx else nullcontext():
            diff = diff_models(
                self.base_model, updated_model, tuple(new_input_routes)
            )
            blast = analyze_blast_radius(diff, self.base_model, updated_model)
        return diff, blast

    # -- splice --------------------------------------------------------------

    def splice(
        self,
        base_ribs: Mapping[str, DeviceRib],
        partial_ribs: Mapping[str, DeviceRib],
        blast: BlastRadius,
        ctx=None,
        full_devices: Iterable[str] = (),
    ) -> SpliceResult:
        """Merge a partial re-simulation into the unaffected base state.

        The spliced map holds the partial run's devices (a base device
        the partial run lacks is dropped whole). At a covered
        prefix a slot is the partial run's (absence there means the route
        was withdrawn), elsewhere the base run's. Only the covered slots
        where the two differ are dropped and installed (:func:`rib_diff`
        over the covered slots): a device without one keeps its base RIB
        object, and every other RIB is derived from its base RIB.

        ``full_devices`` are compared at every slot: a failed router's RIB
        is empty in a cold run even at prefixes the blast radius never
        covers (assembly skips down devices), so keeping base slots there
        would resurrect routes the cold run dropped.
        """
        with (
            ctx.span("incremental.splice", devices=len(base_ribs))
            if ctx
            else nullcontext()
        ) as span:
            dropped, installed = rib_diff(
                base_ribs,
                partial_ribs,
                None if blast.widened else blast.covers,
                whole=frozenset(full_devices),
            )
            result = SpliceResult({}, dropped=dropped, installed=installed)
            for name, partial_rib in partial_ribs.items():
                base_rib = base_ribs.get(name)
                gone, new = dropped.get(name, {}), installed.get(name, {})
                if base_rib is None:
                    base_rib = DeviceRib(name)
                else:
                    result.reused_slots += base_rib.slot_count() - _count(gone)
                    if not gone and not new:
                        result.device_ribs[name] = base_rib
                        result.reused_devices += 1
                        continue
                result.device_ribs[name] = base_rib.derive(gone, partial_rib, new)
                result.affected_devices += 1
            result.spliced_slots = sum(map(len, result.touched.values()))
            if span is not None:
                # What the splice did (``repro verify --trace`` shows it).
                span.meta.update(
                    affected_devices=result.affected_devices,
                    reused_devices=result.reused_devices,
                    spliced_slots=result.spliced_slots,
                )
        return result


def _count(slots: Slots) -> int:
    return sum(map(len, slots.values()))
