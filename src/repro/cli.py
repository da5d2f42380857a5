"""Command-line interface.

Production Hoyan takes change verification requests through a web GUI (for
high-risk, manually designed changes) and a REST API (for automated ones)
(§6). This CLI is the reproduction's equivalent surface:

* ``repro generate`` — build a synthetic WAN snapshot (model + input
  routes + flows) and save it;
* ``repro simulate`` — run route/traffic simulation on a snapshot;
* ``repro verify`` — verify a change plan (JSON) against a snapshot;
* ``repro campaign`` — run the Table-4 accuracy-diagnosis campaign;
* ``repro audit`` — run the daily configuration audits;
* ``repro rcl`` — parse/size-check an RCL specification;
* ``repro vsb`` — print the vendor-behaviour differential-test table;
* ``repro chaos`` — run the seeded fault-injection invariant check;
* ``repro kfailure`` — check a reachability property under every ≤k
  failure scenario (warm-start + equivalence-class pruning by default);
* ``repro serve`` — run the long-lived verification service daemon;
* ``repro submit`` / ``status`` / ``result`` / ``cancel`` / ``shutdown`` —
  the thin client for a running daemon.

Global flags: ``--log-level`` enables the package's structured event log on
stderr; ``repro verify --trace out.json`` writes the run's span tree and
counters as ``repro.trace/v1`` JSON.

Exit codes: 0 success; 1 the check failed (RISK DETECTED, audit failure,
invariant violation, undetected fault, parse error); 2 the run itself
failed (a distributed task exhausted its retries and dead-lettered).

Run ``python -m repro <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
from typing import List, Optional

from repro.core import (
    Auditor,
    ChangePlan,
    ChangeVerifier,
    completeness_warnings,
)
from repro.core.planjson import plan_from_json
from repro.exec import (
    BACKEND_NAMES,
    CentralizedBackend,
    DistributedBackend,
    ExecutionBackend,
    RouteSimRequest,
    TrafficSimRequest,
    make_backend,
)
from repro.obs import RunContext, TRACE_SCHEMA, configure_logging
from repro.workload import (
    WanParams,
    generate_flows,
    generate_input_routes,
    generate_wan,
)

#: Exit status when the run reaches no verdict (a distributed task
#: dead-letters, or the plan has a line the parser rejects), as opposed to
#: the run completing and finding a problem.
EXIT_TASK_FAILED = 2


def _save_snapshot(path: str, payload: dict) -> None:
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def _load_snapshot(path: str) -> dict:
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _backend_from_args(args: argparse.Namespace) -> ExecutionBackend:
    """Build the execution backend selected on the command line."""
    name = getattr(args, "backend", None) or "centralized"
    options = {}
    if name.startswith("distributed"):
        options["workers"] = getattr(args, "workers", 1)
        subtasks = getattr(args, "route_subtasks", None)
        if subtasks is not None:
            options["route_subtasks"] = subtasks
    return make_backend(name, **options)


def _write_trace(path: str, ctx: RunContext, root=None) -> None:
    """Serialize a run's trace (span tree + aggregated counters) to JSON."""
    document = {
        "schema": TRACE_SCHEMA,
        "root": (root if root is not None else ctx.root).to_dict(),
        "counters": ctx.counters(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    params = WanParams(
        regions=args.regions,
        cores_per_region=args.cores,
        dcn_cores_per_edge=args.dcn_cores,
        seed=args.seed,
    )
    model, inventory = generate_wan(params)
    routes = generate_input_routes(inventory, n_prefixes=args.prefixes,
                                   seed=args.seed + 1)
    flows = generate_flows(inventory, routes, n_flows=args.flows,
                           seed=args.seed + 2)
    _save_snapshot(
        args.output,
        {"model": model, "inventory": inventory, "routes": routes, "flows": flows},
    )
    stats = model.stats()
    print(
        f"snapshot written to {args.output}: {stats['routers']} routers, "
        f"{stats['links']} links, {len(routes)} input routes, "
        f"{len(flows)} input flows"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    snapshot = _load_snapshot(args.snapshot)
    model, routes = snapshot["model"], snapshot["routes"]
    backend = _backend_from_args(args)
    ctx = RunContext("simulate")
    with ctx.span("simulate", backend=backend.name) as span:
        outcome = backend.run_routes(
            RouteSimRequest(model=model, inputs=routes, include_local_inputs=True),
            ctx,
        )
    if outcome.result is not None:
        stats = outcome.result.stats
        detail = (f"{stats.rounds} rounds, {stats.messages} messages, "
                  f"converged={stats.converged}")
    else:
        report = outcome.task.report if outcome.task is not None else None
        detail = (f"{backend.name}: {len(report.attempts)} subtasks"
                  if report is not None else backend.name)
    rib_rows = sum(rib.route_count() for rib in outcome.device_ribs.values())
    print(f"route simulation: {detail}, {rib_rows} RIB rows, "
          f"{span.duration:.2f}s")
    if args.traffic and snapshot.get("flows"):
        with ctx.span("traffic") as tspan:
            traffic = backend.run_traffic(
                TrafficSimRequest(
                    model=model,
                    flows=snapshot["flows"],
                    device_ribs=outcome.device_ribs,
                    igp=outcome.igp,
                ),
                ctx,
            )
        busiest = sorted(
            traffic.loads.loads.items(), key=lambda kv: (-kv[1], kv[0])
        )[:5]
        print(f"traffic simulation: {len(traffic.loads)} loaded links, "
              f"{tspan.duration:.2f}s; busiest:")
        for (a, b), volume in busiest:
            print(f"  {a} <-> {b}: {volume / 1e9:.2f} Gb/s")
    if args.trace:
        _write_trace(args.trace, ctx)
        print(f"trace written to {args.trace}")
    return 0


def _plan_from_json(data: dict, flows_available: bool) -> ChangePlan:
    """Materialize a ChangePlan from its JSON description."""
    return plan_from_json(data, flows_available=flows_available)


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.distsim import TaskFailed
    from repro.net.config import ConfigParseError

    snapshot = _load_snapshot(args.snapshot)
    with open(args.plan, "r", encoding="utf-8") as handle:
        plan_data = json.load(handle)
    plan = _plan_from_json(plan_data, flows_available=bool(snapshot.get("flows")))

    if args.lint:
        for warning in completeness_warnings(plan):
            print(f"lint: {warning}")

    ctx = RunContext("verify")
    verifier = ChangeVerifier(
        snapshot["model"],
        snapshot["routes"],
        snapshot.get("flows", []),
        incremental=args.incremental,
        backend=_backend_from_args(args),
        ctx=ctx,
    )
    try:
        report = verifier.verify(plan)
    except TaskFailed as exc:
        print(f"verification failed: {exc}")
        if exc.report is not None:
            for entry in exc.report.dead_letters:
                print(f"  dead letter: {entry.to_dict()}")
        if args.trace:
            _write_trace(args.trace, ctx)
            print(f"trace written to {args.trace}")
        return EXIT_TASK_FAILED
    except ConfigParseError as exc:
        print(f"plan rejected: {exc}")
        return EXIT_TASK_FAILED
    print(report.summary())
    if args.trace:
        _write_trace(args.trace, ctx, root=report.trace)
        print(f"trace written to {args.trace}")
    return 0 if report.ok else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.diagnosis.campaign import format_table4, run_campaign
    from repro.monitor.faults import FAULT_LIBRARY

    snapshot = _load_snapshot(args.snapshot)
    faults = None
    if args.fault:
        faults = [f for f in FAULT_LIBRARY if f.name in args.fault]
        missing = set(args.fault) - {f.name for f in faults}
        if missing:
            known = ", ".join(sorted(f.name for f in FAULT_LIBRARY))
            print(f"unknown fault(s): {', '.join(sorted(missing))}; "
                  f"known: {known}")
            return EXIT_TASK_FAILED
    ctx = RunContext("campaign")
    rows = run_campaign(
        snapshot["model"],
        snapshot["routes"],
        snapshot.get("flows", []),
        faults=faults,
        seed=args.seed,
        backend=_backend_from_args(args),
        ctx=ctx,
    )
    print(format_table4(rows))
    undetected = [row for row in rows if not row.detected]
    print(f"campaign: {len(rows) - len(undetected)}/{len(rows)} "
          f"issue classes detected")
    if args.trace:
        _write_trace(args.trace, ctx)
        print(f"trace written to {args.trace}")
    return 0 if not undetected else 1


def cmd_audit(args: argparse.Namespace) -> int:
    snapshot = _load_snapshot(args.snapshot)
    model, routes = snapshot["model"], snapshot["routes"]
    outcome = CentralizedBackend().run_routes(
        RouteSimRequest(model=model, inputs=routes, include_local_inputs=True)
    )
    failures = 0
    for audit in Auditor(model, outcome.device_ribs).run():
        print(audit)
        failures += 0 if audit.ok else 1
    return 0 if failures == 0 else 1


def cmd_rcl(args: argparse.Namespace) -> int:
    from repro.rcl import parse, spec_size

    text = args.spec
    if text == "-":
        text = sys.stdin.read()
    try:
        tree = parse(text)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"parse error: {exc}")
        return 1
    print(f"valid RCL specification (size {spec_size(tree)}):")
    print(f"  {tree}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos smoke: the invariant check the CI job runs.

    For each seed, runs the distributed route simulation under uniform
    fault injection and checks the chaos invariant: a run that completes
    must produce merged RIBs byte-identical to the fault-free centralized
    run, and a run that exhausts its retries must surface dead-letter
    entries. Writes per-run ``RunReport`` dumps to
    ``--report`` (even when the check fails) so failures can be replayed
    from the recorded seed.
    """
    from repro.distsim import ChaosPolicy, RetryPolicy, TaskFailed, rib_fingerprint

    model, inventory = generate_wan(
        WanParams(regions=2, cores_per_region=2, seed=args.wan_seed)
    )
    routes = generate_input_routes(
        inventory, n_prefixes=args.prefixes, redundancy=2,
        seed=args.wan_seed + 1,
    )
    baseline_outcome = CentralizedBackend(chunked=True).run_routes(
        RouteSimRequest(model=model, inputs=routes)
    )
    baseline = rib_fingerprint(baseline_outcome.device_ribs)

    retry = RetryPolicy(
        max_retries=args.max_retries, backoff_base=0.001, backoff_cap=0.01
    )
    runs = []
    failures = 0
    for seed in range(args.seeds):
        policy = ChaosPolicy.uniform(seed=seed, probability=args.probability)
        backend = DistributedBackend(chaos=policy, retry=retry)
        entry = {"seed": seed, "probability": args.probability}
        try:
            outcome = backend.run_routes(
                RouteSimRequest(
                    model=model, inputs=routes,
                    subtasks=args.subtasks, workers=args.workers,
                )
            )
        except TaskFailed as exc:
            report = exc.report
            entry["outcome"] = "dead-lettered"
            ok = report is not None and bool(report.dead_letters)
            if not ok:
                entry["outcome"] = "failed without dead letters"
        else:
            report = outcome.task.report
            ok = rib_fingerprint(outcome.device_ribs) == baseline
            entry["outcome"] = (
                "completed" if ok else "completed with divergent RIBs"
            )
        entry["ok"] = ok
        entry["report"] = report.to_dict() if report is not None else None
        runs.append(entry)
        failures += 0 if ok else 1
        print(f"seed={seed} {entry['outcome']}"
              f"{'' if ok else '  INVARIANT VIOLATED'}")

    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump({"baseline": baseline.hex(), "runs": runs}, handle,
                      indent=2)
        print(f"report written to {args.report}")
    print(f"chaos check: {len(runs) - failures}/{len(runs)} runs ok")
    return 0 if failures == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the verification service daemon until SIGTERM (graceful drain)."""
    from repro.serve.server import run_daemon

    def on_ready(daemon) -> None:
        print(
            f"repro-serve listening on {daemon.host}:{daemon.port} "
            f"({args.slots} slots)",
            flush=True,
        )

    run_daemon(
        host=args.host,
        port=args.port,
        slots=args.slots,
        max_active_per_tenant=args.max_active_per_tenant,
        on_ready=on_ready,
    )
    print("repro-serve drained and stopped")
    return 0


def _serve_client(args: argparse.Namespace):
    from repro.serve import ServeClient

    return ServeClient(
        host=args.host, port=args.port, connect_retries=args.connect_retries
    )


def _serve_job_exit(record: dict) -> int:
    """Print a terminal job record; exit codes mirror one-shot ``verify``."""
    state = record["state"]
    if state == "done":
        result = record.get("result", {})
        if "verdict" in result:
            print(result.get("summary", result["verdict"]))
            detail = f"cache: {result.get('cache')}"
            if result.get("rib_fingerprint"):
                detail += f"  rib_fingerprint: {result['rib_fingerprint']}"
            print(detail)
            return 0 if result.get("ok", False) else 1
        print(json.dumps(result, sort_keys=True))
        return 0
    print(f"job {record['job_id']} {state}: {record.get('error', '')}")
    return EXIT_TASK_FAILED


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServerError

    spec: dict = {
        "kind": args.kind,
        "tenant": args.tenant,
        "priority": args.priority,
        "isolation": args.isolation,
    }
    if args.snapshot:
        spec["snapshot_path"] = os.path.abspath(args.snapshot)
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            spec["plan"] = json.load(handle)
    if args.backend:
        spec["backend"] = args.backend
    if args.no_cache:
        spec["no_cache"] = True
    if args.kind == "kfailure":
        spec["k"] = args.k if args.k is not None else 1
        if args.prefix:
            spec["prefix"] = args.prefix
        if args.device:
            spec["devices"] = args.device
    with _serve_client(args) as client:
        try:
            job_id = client.submit(spec)
        except ServerError as exc:
            print(f"submit rejected ({exc.code}): {exc}")
            return EXIT_TASK_FAILED
        print(f"submitted {job_id}")
        if args.follow:
            for event in client.events(job_id):
                print(json.dumps(event, sort_keys=True))
        if args.wait or args.follow:
            return _serve_job_exit(client.result(job_id, wait=True))
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.serve import ServerError

    with _serve_client(args) as client:
        try:
            record = client.status(args.job_id)
        except ServerError as exc:
            print(f"status failed ({exc.code}): {exc}")
            return EXIT_TASK_FAILED
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    from repro.serve import ServerError

    with _serve_client(args) as client:
        try:
            record = client.result(args.job_id, wait=args.wait)
        except ServerError as exc:
            print(f"result failed ({exc.code}): {exc}")
            return EXIT_TASK_FAILED
    return _serve_job_exit(record)


def cmd_cancel(args: argparse.Namespace) -> int:
    from repro.serve import ServerError

    with _serve_client(args) as client:
        try:
            response = client.cancel(args.job_id)
        except ServerError as exc:
            print(f"cancel failed ({exc.code}): {exc}")
            return EXIT_TASK_FAILED
    print(f"{response['job_id']}: state={response['state']} "
          f"cancel_requested={response['cancel_requested']}")
    return 0


def cmd_shutdown(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        client.shutdown(drain=not args.no_drain)
    print("shutdown requested" + (" (no drain)" if args.no_drain else " (drain)"))
    return 0


def cmd_kfailure(args: argparse.Namespace) -> int:
    from repro.distsim import TaskFailed
    from repro.kfailure import KFailureEngine, reachability_property
    from repro.net.topology import TopologyError

    snapshot = _load_snapshot(args.snapshot)
    model, routes = snapshot["model"], snapshot["routes"]
    if not routes and args.prefix is None:
        print("snapshot has no input routes; pass --prefix explicitly")
        return EXIT_TASK_FAILED
    prefix = args.prefix or str(routes[0].route.prefix)
    devices = args.device or sorted(model.devices)
    ctx = RunContext("kfailure")
    engine = KFailureEngine(
        model,
        routes,
        fail_links=not args.routers_only,
        fail_routers=args.fail_routers or args.routers_only,
        max_scenarios=args.max_scenarios,
        backend=_backend_from_args(args),
        warm=not args.cold,
        prune=not args.cold,
        stop_on_first_violation=args.stop_on_first,
        ctx=ctx,
    )
    try:
        result = engine.check(
            args.k, reachability_property(prefix, devices, vrf=args.vrf)
        )
    except (TaskFailed, TopologyError) as exc:
        print(f"k-failure exploration failed: {exc}")
        if args.trace:
            _write_trace(args.trace, ctx)
            print(f"trace written to {args.trace}")
        return EXIT_TASK_FAILED
    print(f"k={args.k} ({engine.mode_name}): {result.summary()}")
    for violation in result.violations[: args.show]:
        print(f"  {violation}")
    if len(result.violations) > args.show:
        print(f"  ... and {len(result.violations) - args.show} more")
    if args.trace:
        _write_trace(args.trace, ctx)
        print(f"trace written to {args.trace}")
    return 0 if result.ok else 1


def cmd_vsb(args: argparse.Namespace) -> int:
    from repro.diagnosis.difftest import detect_vsbs
    from repro.net.vendors import get_profile

    detections = detect_vsbs(get_profile(args.vendor_a), get_profile(args.vendor_b))
    for detection in detections:
        marker = "DIFFERS " if detection.detected else "same    "
        print(f"{marker} {detection.knob:42s} "
              f"a={detection.observable_a} b={detection.observable_b}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=list(BACKEND_NAMES),
                        help="execution backend (default: centralized)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker pool size for distributed backends")
    parser.add_argument("--route-subtasks", type=int, default=None,
                        help="route subtask count for distributed backends")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Hoyan reproduction CLI"
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="enable repro.* structured event logging on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a WAN snapshot")
    generate.add_argument("--regions", type=int, default=3)
    generate.add_argument("--cores", type=int, default=3)
    generate.add_argument("--dcn-cores", type=int, default=0)
    generate.add_argument("--prefixes", type=int, default=100)
    generate.add_argument("--flows", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--output", "-o", default="wan-snapshot.pkl")
    generate.set_defaults(func=cmd_generate)

    simulate = sub.add_parser("simulate", help="simulate a snapshot")
    simulate.add_argument("snapshot")
    simulate.add_argument("--traffic", action="store_true")
    simulate.add_argument("--trace", help="write the run's trace JSON here")
    _add_backend_options(simulate)
    simulate.set_defaults(func=cmd_simulate)

    verify = sub.add_parser("verify", help="verify a change plan (JSON)")
    verify.add_argument("snapshot")
    verify.add_argument("plan")
    verify.add_argument("--distributed", dest="backend", action="store_const",
                        const="distributed-thread",
                        help="alias for --backend distributed-thread")
    verify.add_argument("--incremental", dest="incremental",
                        action="store_true", default=True,
                        help="blast-radius-bounded re-simulation (default)")
    verify.add_argument("--no-incremental", dest="incremental",
                        action="store_false",
                        help="always re-simulate the full updated network")
    verify.add_argument("--lint", action="store_true",
                        help="print intent-completeness warnings")
    verify.add_argument("--trace", help="write the run's trace JSON here")
    _add_backend_options(verify)
    verify.set_defaults(func=cmd_verify)

    campaign = sub.add_parser(
        "campaign", help="Table-4 accuracy-diagnosis campaign"
    )
    campaign.add_argument("snapshot")
    campaign.add_argument("--fault", action="append", default=None,
                          help="run only this issue class (repeatable)")
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--trace", help="write the run's trace JSON here")
    _add_backend_options(campaign)
    campaign.set_defaults(func=cmd_campaign)

    audit = sub.add_parser("audit", help="run daily configuration audits")
    audit.add_argument("snapshot")
    audit.set_defaults(func=cmd_audit)

    rcl = sub.add_parser("rcl", help="parse and size an RCL specification")
    rcl.add_argument("spec", help="specification text, or '-' for stdin")
    rcl.set_defaults(func=cmd_rcl)

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection invariant check"
    )
    chaos.add_argument("--seeds", type=int, default=3,
                       help="number of chaos seeds to sweep (0..N-1)")
    chaos.add_argument("--probability", type=float, default=0.2,
                       help="per-site fault probability")
    chaos.add_argument("--max-retries", type=int, default=10)
    chaos.add_argument("--subtasks", type=int, default=4)
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument("--prefixes", type=int, default=20)
    chaos.add_argument("--wan-seed", type=int, default=3)
    chaos.add_argument("--report", help="write per-run JSON reports here")
    chaos.set_defaults(func=cmd_chaos)

    kfailure = sub.add_parser(
        "kfailure",
        help="check a reachability property under every <=k failure scenario",
    )
    kfailure.add_argument("snapshot")
    kfailure.add_argument("-k", type=int, default=1,
                          help="maximum simultaneous failures (default 1)")
    kfailure.add_argument("--prefix", default=None,
                          help="prefix whose reachability is checked "
                               "(default: the snapshot's first input route)")
    kfailure.add_argument("--device", action="append", default=None,
                          help="device that must keep the prefix "
                               "(repeatable; default: every device)")
    kfailure.add_argument("--vrf", default="global")
    kfailure.add_argument("--fail-routers", action="store_true",
                          help="also enumerate router failures")
    kfailure.add_argument("--routers-only", action="store_true",
                          help="enumerate router failures instead of links")
    kfailure.add_argument("--max-scenarios", type=int, default=None,
                          help="stop after this many scenarios (coverage "
                               "is reported exactly)")
    kfailure.add_argument("--cold", action="store_true",
                          help="disable warm-start and pruning (baseline)")
    kfailure.add_argument("--stop-on-first", action="store_true",
                          help="exit at the first violating scenario")
    kfailure.add_argument("--show", type=int, default=10,
                          help="violating scenarios to print (default 10)")
    kfailure.add_argument("--trace", help="write the run's trace JSON here")
    _add_backend_options(kfailure)
    kfailure.set_defaults(func=cmd_kfailure)

    vsb = sub.add_parser("vsb", help="vendor differential-test table")
    vsb.add_argument("--vendor-a", default="vendor-a")
    vsb.add_argument("--vendor-b", default="vendor-b")
    vsb.set_defaults(func=cmd_vsb)

    from repro.serve.protocol import DEFAULT_HOST, DEFAULT_PORT

    def _add_client_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--host", default=DEFAULT_HOST)
        parser.add_argument("--port", type=int, default=DEFAULT_PORT)
        parser.add_argument(
            "--connect-retries", type=int, default=25,
            help="connection retries while the daemon is still starting",
        )

    serve = sub.add_parser(
        "serve", help="run the verification service daemon"
    )
    serve.add_argument("--host", default=DEFAULT_HOST)
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument("--slots", type=int, default=2,
                       help="concurrent worker slots")
    serve.add_argument("--max-active-per-tenant", type=int, default=8,
                       help="per-tenant queued+running quota")
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser("submit", help="submit a job to a running daemon")
    submit.add_argument("snapshot", nargs="?",
                        help="snapshot .pkl (on the daemon's filesystem)")
    submit.add_argument("plan", nargs="?",
                        help="change-plan JSON (verify / what-if jobs)")
    submit.add_argument("--kind", default="verify",
                        choices=["verify", "whatif", "simulate", "kfailure",
                                 "sleep"])
    submit.add_argument("-k", type=int, default=None,
                        help="kfailure jobs: maximum simultaneous failures")
    submit.add_argument("--prefix", default=None,
                        help="kfailure jobs: prefix to check")
    submit.add_argument("--device", action="append", default=None,
                        help="kfailure jobs: device that must keep the "
                             "prefix (repeatable)")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", default="normal",
                        choices=["high", "normal", "batch"])
    submit.add_argument("--isolation", default="thread",
                        choices=["thread", "process"])
    submit.add_argument("--backend", choices=list(BACKEND_NAMES),
                        help="execution backend for the job")
    submit.add_argument("--no-cache", action="store_true",
                        help="bypass the daemon's result cache")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes; exit like verify")
    submit.add_argument("--follow", action="store_true",
                        help="stream NDJSON progress events (implies --wait)")
    _add_client_options(submit)
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser("status", help="show a submitted job's record")
    status.add_argument("job_id")
    _add_client_options(status)
    status.set_defaults(func=cmd_status)

    result = sub.add_parser("result", help="fetch a job's terminal result")
    result.add_argument("job_id")
    result.add_argument("--wait", action="store_true",
                        help="block until the job reaches a terminal state")
    _add_client_options(result)
    result.set_defaults(func=cmd_result)

    cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    cancel.add_argument("job_id")
    _add_client_options(cancel)
    cancel.set_defaults(func=cmd_cancel)

    shutdown = sub.add_parser("shutdown", help="stop a running daemon")
    shutdown.add_argument("--no-drain", action="store_true",
                          help="abort running jobs instead of draining")
    _add_client_options(shutdown)
    shutdown.set_defaults(func=cmd_shutdown)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
