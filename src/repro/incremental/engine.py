"""Warm-start incremental verification: partial re-simulation plus splice.

The engine ties the subsystem together for ``ChangeVerifier``:

1. After the base simulation, :meth:`IncrementalEngine.snapshot_base`
   moves the base world into the collector's permanent generation. The
   verifier holds the base device RIBs by reference; nothing copies them.
2. Per change plan, :meth:`IncrementalEngine.analyze` produces the model
   diff and blast radius.
3. The verifier re-simulates only the covered input routes
   (:meth:`IncrementalEngine.covered_inputs` — order-preserving, so subtask
   grouping and candidate ordering match a full run), then
   :meth:`IncrementalEngine.splice` merges the partial result into the
   unaffected base state: covered slots come from the partial run, uncovered
   slots from the base RIBs, and devices without any covered slot reuse
   their base RIB object wholesale. The
   :class:`SpliceResult` names the slots it dropped and installed, so that
   the verifier patches the base global RIB instead of rebuilding it.

A spliced device RIB is *derived* (:meth:`DeviceRib.derive`): base VRF
tables are copied at C speed, covered base slots deleted, covered partial
slots appended, and the radius is asked once per distinct prefix, so the
cost follows the change, not the RIB. A derived RIB shares entry lists with
the base and partial RIBs; no ``DeviceRib`` method mutates one in place.

Correctness rests on the blast-radius guarantee: a slot whose prefix the
radius does not cover is byte-identical between base and updated runs, so
splicing base rows there reproduces exactly what the full run would emit.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from repro.incremental.blast import BlastRadius, analyze_blast_radius
from repro.incremental.diff import ModelDiff, diff_models
from repro.net.addr import Prefix
from repro.net.model import NetworkModel
from repro.routing.inputs import InputRoute
from repro.routing.rib import DeviceRib, Slots

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
    spliced_slots: int = 0
    #: slots that may differ from the base world: spliced ones plus base
    #: slots the partial run withdrew (what the intent check looks at)
    touched_slots: int = 0
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
            return f"incremental: widened to full ({reasons})"
        if self.mode == MODE_NOOP:
            return (
                "incremental: no routing-visible change, "
                f"reused base RIBs of {self.total_devices} devices"
            )
        parts = [
            f"blast radius {self.affected_devices}/{self.total_devices} devices",
            f"{self.affected_prefixes} prefixes",
            f"re-simulated {self.resimulated_inputs}/{self.total_inputs} inputs",
            f"spliced {self.spliced_slots} slots, "
            f"touched {self.touched_slots} slots, reused {self.reused_slots}",
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
    it took from the partial run. Everything else of the spliced world
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
        """Per device, every ``(vrf, prefix)`` that may differ from the base."""
        return {
            name: {
                (vrf, prefix)
                for slots in (self.dropped[name], self.installed[name])
                for vrf, prefixes in slots.items()
                for prefix in prefixes
            }
            for name in self.dropped
        }


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

    @staticmethod
    def covered_inputs(
        inputs: Iterable[InputRoute], blast: BlastRadius
    ) -> List[InputRoute]:
        """Inputs inside the blast radius, in original (full-run) order."""
        return [item for item in inputs if blast.covers(item.route.prefix)]

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

        For every device: slots at covered prefixes come from the partial
        run (absence there means the route was withdrawn); slots at
        uncovered prefixes come from the base run. A device with no covered
        slot on either side keeps its base RIB object.

        ``full_devices`` take their partial RIB wholesale, skipping the
        per-slot merge: a failed router's RIB is empty in a cold run even
        at prefixes the blast radius never covers (assembly skips down
        devices), so splicing base slots there would resurrect routes the
        cold run dropped.
        """
        with _span(ctx, devices=len(base_ribs)) as span:
            result = self._splice(
                base_ribs, partial_ribs, blast, frozenset(full_devices)
            )
            _describe(span, result)
            return result

    def splice_scoped(
        self,
        base_ribs: Mapping[str, DeviceRib],
        partial_ribs: Mapping[str, DeviceRib],
        blast: BlastRadius,
        scoped_devices: Iterable[str],
        ctx=None,
        full_devices: Iterable[str] = (),
    ) -> SpliceResult:
        """Splice when only ``scoped_devices`` could have changed.

        The modular backend's region-scoped path proves (via an unchanged
        border summary) that devices outside the scoped region hold their
        base state even at covered prefixes, so they reuse their base RIB
        objects wholesale; scoped devices splice exactly like
        :meth:`splice`, including its ``full_devices`` replacement rule.
        """
        member = set(scoped_devices)
        with _span(ctx, devices=len(base_ribs), scoped=len(member)) as span:
            result = self._splice(
                {name: rib for name, rib in base_ribs.items() if name in member},
                {name: rib for name, rib in partial_ribs.items() if name in member},
                blast,
                frozenset(full_devices) & member,
            )
            for name, base_rib in base_ribs.items():
                if name not in member:
                    result.device_ribs[name] = base_rib
                    result.reused_devices += 1
                    result.reused_slots += base_rib.slot_count()
            _describe(span, result)
            return result

    def _splice(
        self,
        base_ribs: Mapping[str, DeviceRib],
        partial_ribs: Mapping[str, DeviceRib],
        blast: BlastRadius,
        full_devices: FrozenSet[str] = frozenset(),
    ) -> SpliceResult:
        result = SpliceResult(device_ribs={})
        covered = _covered_prefixes(blast)
        names = list(base_ribs)
        names.extend(sorted(set(partial_ribs) - set(base_ribs)))
        for name in names:
            base_rib = base_ribs.get(name)
            partial_rib = partial_ribs.get(name)
            base = base_rib if base_rib is not None else DeviceRib(name)
            if name in full_devices:
                spliced = partial_rib if partial_rib is not None else DeviceRib(name)
                dropped, installed = base.slots(), spliced.slots()
            else:
                dropped = base.slots(covered)
                installed = (
                    partial_rib.slots(covered) if partial_rib is not None else {}
                )
                result.reused_slots += base.slot_count() - _count(dropped)
                if not dropped and not installed and base_rib is not None:
                    result.device_ribs[name] = base_rib
                    result.reused_devices += 1
                    continue
                spliced = base.derive(dropped, partial_rib, installed)
            result.device_ribs[name] = spliced
            result.affected_devices += 1
            result.dropped[name] = dropped
            result.installed[name] = installed
            result.spliced_slots += _count(installed)
        return result


def _covered_prefixes(blast: BlastRadius) -> Callable[[Set[Prefix]], Set[Prefix]]:
    """``blast.covers`` as a set filter, asking once per distinct prefix."""
    seen: Set[Prefix] = set()
    covered: Set[Prefix] = set()

    def pick(prefixes: Set[Prefix]) -> Set[Prefix]:
        fresh = prefixes - seen
        if fresh:
            seen.update(fresh)
            covered.update(filter(blast.covers, fresh))
        prefixes &= covered  # set operations: stored hashes, C speed
        return prefixes

    return pick


def _count(slots: Slots) -> int:
    return sum(map(len, slots.values()))


def _span(ctx, **meta):
    return ctx.span("incremental.splice", **meta) if ctx else nullcontext()


def _describe(span, result: SpliceResult) -> None:
    """What a splice did, on its span (``repro verify --trace`` shows it)."""
    if span is not None:
        span.meta.update(
            affected_devices=result.affected_devices,
            reused_devices=result.reused_devices,
            spliced_slots=result.spliced_slots,
        )
