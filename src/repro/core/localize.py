"""Misconfiguration localization (§7, "Lessons and Opportunities").

The paper leaves automatic localization of the misconfiguration behind an
intent violation to future work; this module implements the natural
delta-debugging approach on top of the verifier:

* **Device-level isolation** — re-verify the plan with each target device's
  commands removed; a device whose removal clears the violation is
  implicated.
* **Command-level minimization** — for each implicated device, greedily
  shrink its command list to a minimal violating subset (ddmin-style
  halving with a linear fallback), yielding the specific commands that
  cause the violation.
* **Latent-defect probing** — when the violation persists even with ALL
  commands removed, the defect predates the change (the Figure 10(a)
  pattern); the localizer reports that the plan only *activates* an
  existing misconfiguration and names the devices whose base policies the
  failing intents implicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.change_plan import ChangePlan
from repro.core.pipeline import ChangeVerifier
from repro.obs import RunContext


@dataclass
class Culprit:
    """One localized cause of an intent violation."""

    device: str
    commands: List[str]
    kind: str  # "command" | "latent"
    note: str = ""

    def __str__(self) -> str:
        if self.kind == "latent":
            return f"latent defect involving {self.device}: {self.note}"
        rendered = "; ".join(self.commands)
        return f"{self.device}: {rendered}"


@dataclass
class LocalizationResult:
    plan_name: str
    violated_intents: List[str]
    culprits: List[Culprit] = field(default_factory=list)
    verifications_run: int = 0
    elapsed_seconds: float = 0.0

    @property
    def localized(self) -> bool:
        return bool(self.culprits)

    def report(self) -> str:
        lines = [
            f"localization for plan {self.plan_name!r} "
            f"({self.verifications_run} verifications, "
            f"{self.elapsed_seconds:.1f}s):"
        ]
        for intent in self.violated_intents:
            lines.append(f"  violated: {intent}")
        if not self.culprits:
            lines.append("  no culprit isolated")
        for culprit in self.culprits:
            lines.append(f"  culprit: {culprit}")
        return "\n".join(lines)


class MisconfigurationLocalizer:
    """Delta-debugs a failing change plan down to culprit commands."""

    def __init__(self, verifier: ChangeVerifier, max_verifications: int = 64):
        self.verifier = verifier
        self.max_verifications = max_verifications
        self._count = 0

    # -- public ---------------------------------------------------------------

    def localize(
        self, plan: ChangePlan, ctx: Optional[RunContext] = None
    ) -> LocalizationResult:
        """Localize the cause of the plan's intent violations."""
        ctx = ctx if ctx is not None else self.verifier.ctx
        self._count = 0
        with ctx.span("localize", plan=plan.name) as span:
            result = self._localize(plan, ctx)
        result.verifications_run = self._count
        result.elapsed_seconds = span.duration
        return result

    def _localize(self, plan: ChangePlan, ctx: RunContext) -> LocalizationResult:
        baseline = self._verify(plan)
        result = LocalizationResult(
            plan_name=plan.name,
            violated_intents=[r.intent for r in baseline.violated],
        )
        if baseline.ok:
            return result

        # Which violations exist even with no commands at all? Positive
        # "change effect" intents naturally fail without the commands, so
        # classification is per intent: a violation present in BOTH runs is
        # latent (pre-existing); one that clears when commands are removed
        # is command-caused.
        stripped = self._with_commands(plan, {})
        stripped_violated = {r.intent for r in self._verify(stripped).violated}
        baseline_violated = {r.intent for r in baseline.violated}
        command_caused = baseline_violated - stripped_violated
        latent = baseline_violated & stripped_violated

        if command_caused:
            focused = self._with_intents(plan, command_caused)
            result.culprits.extend(self._command_culprits(focused))
        if latent:
            result.culprits.extend(
                self._latent_culprits(plan, baseline, latent)
            )
        ctx.count("localize.culprits", len(result.culprits))
        return result

    # -- internals ----------------------------------------------------------------

    def _verify(self, plan: ChangePlan):
        if self._count >= self.max_verifications:
            raise RuntimeError(
                f"localization exceeded {self.max_verifications} verifications"
            )
        self._count += 1
        return self.verifier.verify(plan)

    @staticmethod
    def _with_commands(
        plan: ChangePlan, commands: Dict[str, List[str]]
    ) -> ChangePlan:
        return ChangePlan(
            name=f"{plan.name}@localize",
            change_type=plan.change_type,
            device_commands=commands,
            topology_ops=list(plan.topology_ops),
            new_input_routes=list(plan.new_input_routes),
            intents=list(plan.intents),
        )

    @staticmethod
    def _with_intents(plan: ChangePlan, descriptions) -> ChangePlan:
        """Keep only the intents whose result descriptions are given."""
        kept = [
            intent for intent in plan.intents if intent.describe() in descriptions
        ]
        return ChangePlan(
            name=plan.name,
            change_type=plan.change_type,
            device_commands=dict(plan.device_commands),
            topology_ops=list(plan.topology_ops),
            new_input_routes=list(plan.new_input_routes),
            intents=kept or list(plan.intents),
        )

    def _command_culprits(self, plan: ChangePlan) -> List[Culprit]:
        """Isolate devices, then minimize each device's command list."""
        culprits: List[Culprit] = []
        devices = list(plan.device_commands)
        implicated: List[str] = []
        for device in devices:
            without = {
                name: cmds
                for name, cmds in plan.device_commands.items()
                if name != device
            }
            if self._verify(self._with_commands(plan, without)).ok:
                implicated.append(device)
        if not implicated:
            # Violation needs multiple devices' commands together; treat the
            # whole set as one culprit per device.
            implicated = devices

        for device in implicated:
            minimal = self._minimize(plan, device, plan.device_commands[device])
            culprits.append(Culprit(device=device, commands=minimal, kind="command"))
        return culprits

    def _violates_with(
        self, plan: ChangePlan, device: str, commands: Sequence[str]
    ) -> bool:
        candidate = dict(plan.device_commands)
        candidate[device] = list(commands)
        try:
            return not self._verify(self._with_commands(plan, candidate)).ok
        except Exception:
            # Unapplicable command subsets (dangling context) count as
            # non-reproducing; the minimizer backs off.
            return False

    def _minimize(
        self, plan: ChangePlan, device: str, commands: List[str]
    ) -> List[str]:
        """Greedy ddmin-style minimization of one device's command list.

        Context-opening commands (``route-map X ...``) and their indented
        sub-commands form blocks that are removed together.
        """
        blocks = _split_blocks(commands)
        changed = True
        while changed and len(blocks) > 1:
            changed = False
            for index in range(len(blocks)):
                candidate_blocks = blocks[:index] + blocks[index + 1 :]
                flat = [cmd for block in candidate_blocks for cmd in block]
                if self._violates_with(plan, device, flat):
                    blocks = candidate_blocks
                    changed = True
                    break
        return [cmd for block in blocks for cmd in block]

    def _latent_culprits(
        self, plan: ChangePlan, baseline, latent_intents=None
    ) -> List[Culprit]:
        """The violation predates the commands: name implicated devices."""
        devices = set(plan.device_commands)
        mentioned: List[str] = []
        for result in baseline.violated:
            if latent_intents is not None and result.intent not in latent_intents:
                continue
            for example in result.counterexamples:
                for device in self.verifier.base_model.device_names:
                    if device in example and device not in mentioned:
                        mentioned.append(device)
        note = (
            "violation persists with all commands removed — the change "
            "activates a pre-existing misconfiguration"
        )
        targets = mentioned or sorted(devices)
        return [
            Culprit(device=device, commands=[], kind="latent", note=note)
            for device in targets[:5]
        ]


def _split_blocks(commands: Sequence[str]) -> List[List[str]]:
    """Group commands into top-level blocks with their indented children."""
    blocks: List[List[str]] = []
    for command in commands:
        if command.startswith(" ") and blocks:
            blocks[-1].append(command)
        else:
            blocks.append([command])
    return blocks
