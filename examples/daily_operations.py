#!/usr/bin/env python3
"""Hoyan's other daily workloads (§6.2): configuration auditing, accuracy
validation against the monitoring systems, and k-failure checking.

Run: python examples/daily_operations.py
"""

from repro.core import Auditor
from repro.kfailure import KFailureEngine, reachability_property
from repro.diagnosis import AccuracyValidator
from repro.monitor import RouteMonitor
from repro.routing.simulator import simulate_routes
from repro.workload import WanParams, generate_input_routes, generate_wan


def main() -> None:
    model, inventory = generate_wan(WanParams(regions=2, cores_per_region=2))
    routes = generate_input_routes(inventory, n_prefixes=30)
    print(f"network: {model.stats()}")

    # --- daily base simulation ------------------------------------------------
    result = simulate_routes(model, routes)
    print(f"base simulation: {result.stats.rounds} BGP rounds, "
          f"{result.stats.messages} messages, converged={result.stats.converged}")

    # --- configuration auditing -------------------------------------------------
    print("\ndaily configuration audits:")
    auditor = Auditor(model, result.device_ribs)
    for audit in auditor.run():
        print(f"  {audit}")

    # Plant a live misconfiguration and audit again: a typo'd filter name.
    broken = model.copy()
    ctx = broken.edit(inventory.borders[0]).policy_ctx
    ctx.policies["ISP-IN"].node(99, "permit").match("prefix-list", "TYPO-NAME")
    print("\nafter planting a typo'd filter reference:")
    for audit in Auditor(broken, result.device_ribs).run(["policy-references-defined"]):
        print(f"  {audit}")

    # --- accuracy validation against the route monitoring feed ----------------
    print("\naccuracy validation (simulated vs monitored):")
    monitored = RouteMonitor(model).collect(result.device_ribs)
    report = AccuracyValidator(model).validate_routes(result.device_ribs, monitored)
    print(f"  {report.summary()}")

    # --- k-failure checking ------------------------------------------------------
    dc_prefix = next(
        str(r.route.prefix) for r in routes if r.router in inventory.dc_edges
    )
    print(f"\nk-failure check: {dc_prefix} stays reachable on the borders")
    engine = KFailureEngine(model, routes, max_scenarios=40)
    k1 = engine.check(1, reachability_property(dc_prefix, inventory.borders))
    print(f"  k=1: {k1.scenarios_checked} scenarios, "
          f"{len(k1.violations)} violations, ok={k1.ok}")
    for violation in k1.violations[:3]:
        print(f"    {violation}")


if __name__ == "__main__":
    main()
