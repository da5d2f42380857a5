"""Table 6: root causes of change risks detected in 2024.

A corpus of faulty change plans is generated with defects drawn from the
paper's root-cause distribution (incorrect commands 37.5%, design flaws
34.4%, existing misconfiguration 15.6%, topology issues 6.3%, others 6.2%);
correct plans are mixed in. The verifier must flag every faulty plan (the
risks Hoyan detected) and pass every correct one, and the regenerated table
reports the detected-risk distribution next to the paper's.

One faulty plan is appended after the seeded corpus (so the generated
plans do not move): it undoes an SR policy under a mistyped name, the
undo-command case of "incorrect commands".
"""

import pytest

from repro.core import ChangePlan, ChangeVerifier, PrefixReaches
from repro.net.config.dialects import DIALECTS
from repro.workload import generate_change_corpus, generate_input_routes
from repro.workload.changes import ROOT_CAUSES, GeneratedChange

N_RISKY, N_CORRECT = 24, 6


def mistyped_undo(model, inventory, routes):
    """Undo a core's SR policy under a mistyped name. Its intent (a prefix
    still reaches the RRs) holds for a no-op, so only rejecting the line
    finds the risk."""
    core = next(name for name in inventory.cores if model.device(name).sr_policies)
    negation = DIALECTS[model.device(core).vendor_name].negation
    return GeneratedChange(
        plan=ChangePlan(
            name="undo-sr-policy-typo",
            change_type="traffic-steering",
            device_commands={core: [f"{negation} segment-routing policy SR-EXTI"]},
            intents=[PrefixReaches(str(routes[0].route.prefix), inventory.rrs[:2])],
        ),
        root_cause="incorrect-commands",
        expect_risk=True,
    )


def test_table6_change_risk_detection(wan_world, record, benchmark):
    model, inventory, _, _ = wan_world
    routes = generate_input_routes(inventory, n_prefixes=40, redundancy=1, seed=5)
    corpus = generate_change_corpus(
        model, inventory, n_risky=N_RISKY, n_correct=N_CORRECT, seed=21
    ) + [mistyped_undo(model, inventory, routes)]

    def run_corpus():
        outcomes = []
        for change in corpus:
            base = model.copy()
            if change.prepare_base:
                change.prepare_base(base)
            verifier = ChangeVerifier(base, routes + change.extra_input_routes)
            try:
                risky = not verifier.verify(change.plan).ok
            except Exception:
                # A plan whose commands do not even apply (wrong dialect,
                # missing targets) is a detected risk too.
                risky = True
            outcomes.append((change, risky))
        return outcomes

    outcomes = benchmark.pedantic(run_corpus, rounds=1, iterations=1)

    detected_by_cause = {}
    missed, false_positives = [], []
    for change, risky in outcomes:
        if change.expect_risk:
            if risky:
                cause = change.root_cause
                detected_by_cause[cause] = detected_by_cause.get(cause, 0) + 1
            else:
                missed.append(change.plan.name)
        elif risky:
            false_positives.append(change.plan.name)

    total_detected = sum(detected_by_cause.values())
    rows = [
        f"{'root cause':28s} {'paper %':>8s} {'detected':>9s} {'measured %':>11s}"
    ]
    for cause, paper_pct in ROOT_CAUSES.items():
        count = detected_by_cause.get(cause, 0)
        measured = 100.0 * count / total_detected if total_detected else 0.0
        rows.append(f"{cause:28s} {paper_pct:7.1f}% {count:9d} {measured:10.1f}%")
    rows.append(
        f"\nrisky plans: {N_RISKY + 1}, detected: {total_detected}, "
        f"missed: {len(missed)}"
    )
    rows.append(f"correct plans: {N_CORRECT}, false positives: {len(false_positives)}")
    record("table6_change_risks", "\n".join(rows))

    assert not missed, f"undetected risky plans: {missed}"
    assert not false_positives, f"false positives: {false_positives}"
    # The two dominant classes of the paper dominate here too.
    ranked = sorted(detected_by_cause, key=detected_by_cause.get, reverse=True)
    assert set(ranked[:2]) <= {"incorrect-commands", "design-flaws", "others"}
