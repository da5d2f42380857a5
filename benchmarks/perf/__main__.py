"""CLI for the perf harness: ``python -m benchmarks.perf [--smoke|--large|--large-smoke]``."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from benchmarks.perf import (
    REPORT_PATH,
    bench_kfailure_sweep,
    check_kfailure_smoke,
    check_large_smoke,
    check_smoke,
    load_report,
    run_benchmarks,
    run_large_benchmarks,
    write_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Time the simulation hot paths and write BENCH_perf.json.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI subset; compares against the committed report and "
        "fails on a >2x regression instead of rewriting it",
    )
    parser.add_argument(
        "--large",
        action="store_true",
        help="include the large tier (paper-scale presets, fresh-process "
        "peak-RSS A/B) in the full report",
    )
    parser.add_argument(
        "--large-smoke",
        action="store_true",
        help="CI large tier: run only the scaled-down large_smoke preset and "
        "fail if its peak RSS regressed >20%% vs the committed report",
    )
    parser.add_argument(
        "--kfailure-smoke",
        action="store_true",
        help="CI k-failure tier: A/B the shared-fixpoint engine against cold "
        "exhaustive enumeration on the medium all-2-link-failure sweep, "
        "assert byte-identical verdicts, and fail below the speedup floor",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPORT_PATH,
        help=f"report path (default: {REPORT_PATH})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="smoke-mode regression factor (default: 2.0)",
    )
    parser.add_argument(
        "--rss-threshold",
        type=float,
        default=1.2,
        help="large-smoke peak-RSS regression factor (default: 1.2)",
    )
    args = parser.parse_args(argv)

    if args.kfailure_smoke:
        scenario = bench_kfailure_sweep()
        print(json.dumps({"kfailure_sweep_medium": scenario}, indent=2))
        failures = check_kfailure_smoke(scenario)
        if failures:
            print("KFAILURE-SMOKE REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(
            "kfailure-smoke ok: byte-identical to cold enumeration at "
            f"{scenario['speedup']}x"
        )
        return 0

    if args.large_smoke:
        scenarios = run_large_benchmarks(preset="large_smoke")
        print(json.dumps(scenarios, indent=2))
        committed = load_report(args.output)
        if committed is None:
            print(
                f"no committed report at {args.output}; run a full "
                "`python -m benchmarks.perf --large` and commit it first",
                file=sys.stderr,
            )
            return 1
        failures = check_large_smoke(
            scenarios, committed, rss_threshold=args.rss_threshold
        )
        for name, data in scenarios.items():
            if data.get("fingerprint") is None:
                failures.append(f"{name}: missing fingerprint")
        if failures:
            print("LARGE-SMOKE REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(
            "large-smoke ok: peak RSS within "
            f"{args.rss_threshold}x of {args.output}"
        )
        return 0

    report = run_benchmarks(smoke=args.smoke, large=args.large)
    print(json.dumps(report["scenarios"], indent=2))

    if args.smoke:
        committed = load_report(args.output)
        if committed is None:
            print(
                f"no committed report at {args.output}; run a full "
                "`python -m benchmarks.perf` and commit it first",
                file=sys.stderr,
            )
            return 1
        failures = check_smoke(report, committed, threshold=args.threshold)
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("smoke ok: no scenario regressed >"
              f"{args.threshold}x vs {args.output}")
        return 0

    write_report(report, args.output)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
