"""Command line of the benchmark: ``python -m benchmarks.e2e``.

* no sub-command — run workloads. With ``--workload`` and ``--trace`` it is
  the driver's contract: one pass, one JSON object on the last line of
  standard output. Without ``--trace`` both passes run; without
  ``--workload`` all four workloads run, in the fixed order of
  ``metrics.WORKLOADS``.
* ``golden`` — regenerate ``golden.json`` from the independent arm.
* ``repeat`` — run two full sets of the same code and compare them.
* ``manifest`` — print the ``BENCHMARK.json`` this code defines.

The process starts no thread, pool, subprocess or shared-memory segment,
checks that at exit, and carries a deadline that turns an overrun into a
non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import signal
import sys
import threading
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e import inputs
from benchmarks.e2e import metrics as metric_defs
from benchmarks.e2e.runner import PassResult, run_pass
from benchmarks.e2e.trace import EXACT_COUNTS, Tracer
from benchmarks.e2e.workloads import make_workload

DEFAULT_SEED = 7
GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden.json"
#: seconds one pass may take before the run aborts; the driver allows 180
PASS_DEADLINE_S = 170
#: measured seconds per pass on the smoke tier
SMOKE_SECONDS = 1.0

WORKLOAD_NAMES = [name for name, _why in metric_defs.WORKLOADS]


class DeadlineExceeded(Exception):
    pass


def _arm_deadline(seconds: int) -> None:
    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"benchmark exceeded its {seconds}s deadline")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)


def _leftovers() -> List[str]:
    """Anything still running beside the main thread (there must be nothing)."""
    found = [f"process {child.pid}" for child in multiprocessing.active_children()]
    found += [
        f"thread {thread.name}"
        for thread in threading.enumerate()
        if thread is not threading.main_thread()
    ]
    return found


def _load_golden(path: pathlib.Path, tier: inputs.Tier, seed: int) -> Dict[str, list]:
    """workload -> per-op records, when the file covers this tier and seed."""
    if not path.exists():
        return {}
    entry = json.loads(path.read_text()).get(tier.name, {})
    return entry.get("workloads", {}) if entry.get("seed") == seed else {}


def _print_pass(result: PassResult) -> None:
    kind = "per-layer (traced)" if result.traced else "end-to-end (untraced)"
    print(f"== {result.workload}: {kind}")
    for note in result.notes:
        print(f"   {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"   {name:40s} {value:14.6g} {unit}")
    share = result.failed / result.attempted if result.attempted else 1.0
    print(f"   failed_share {share:.4f} ({result.failed} of {result.attempted} ops)")
    for error in result.errors:
        print(f"   FAILED {error}")
    print(result.as_json(), flush=True)


def _tier_and_seconds(args: argparse.Namespace):
    if args.smoke:
        return inputs.SMOKE, args.seconds or SMOKE_SECONDS
    return inputs.FULL, args.seconds or metric_defs.RUN_SECONDS


def _run(args: argparse.Namespace) -> int:
    tier, seconds = _tier_and_seconds(args)
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    passes = [bool(args.trace)] if args.trace is not None else [False, True]
    golden = _load_golden(args.golden, tier, args.seed)
    _arm_deadline(PASS_DEADLINE_S * len(names) * len(passes))
    failed = False
    for name in names:
        for traced in passes:
            result = run_pass(
                name, tier, args.seed, seconds, traced, golden.get(name)
            )
            _print_pass(result)
            failed = failed or not result.correct
    return 1 if failed else 0


def _golden(args: argparse.Namespace) -> int:
    """Regenerate the goldens: every op of every workload, independent arm."""
    _arm_deadline(PASS_DEADLINE_S * 8)
    document = {}
    for tier in (inputs.SMOKE, inputs.FULL):
        records = {}
        for name in WORKLOAD_NAMES:
            workload = make_workload(name, tier, args.seed)
            workload.setup(Tracer())
            records[name] = [
                workload.oracle_record(index, {})
                for index in range(workload.op_count())
            ]
            print(f"golden {tier.name}/{name}: {len(records[name])} ops", flush=True)
        document[tier.name] = {"seed": args.seed, "workloads": records}
    args.golden.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.golden}")
    return 0


def _repeat(args: argparse.Namespace) -> int:
    """Two full sets of the same code must agree within the benchmark's bounds.

    Per workload, both untraced passes run before both traced ones, and all
    four before the next workload: ``ru_maxrss`` is a high-water mark of the
    process, and this way the two untraced passes see the same history.
    """
    tier, seconds = _tier_and_seconds(args)
    golden = _load_golden(args.golden, tier, args.seed)
    _arm_deadline(PASS_DEADLINE_S * 4 * len(WORKLOAD_NAMES))
    bad = 0
    for name in WORKLOAD_NAMES:
        passes = {
            traced: [
                run_pass(name, tier, args.seed, seconds, traced, golden.get(name))
                for _ in range(2)
            ]
            for traced in (False, True)
        }
        print(f"== {name}")
        for result in passes[False] + passes[True]:
            for error in result.errors:
                print(f"   FAILED {error}")
            bad += 0 if result.correct else 1
        for metric, unit, better, bound in metric_defs.END_TO_END:
            a, b = (result.metrics[metric][0] for result in passes[False])
            worse = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "ok" if abs(worse) <= bound else "OUTSIDE BOUND"
            bad += verdict != "ok"
            print(
                f"   {metric:16s} {a:12.5g} {b:12.5g} {unit:4s} "
                f"diff {worse:+.3f} bound {bound:.2f} {verdict}",
                flush=True,
            )
        for metric in EXACT_COUNTS:
            a, b = (result.metrics[metric][0] for result in passes[True])
            verdict = "ok" if a == b else "DIFFERS"
            bad += verdict != "ok"
            print(f"   {metric:32s} {a:12g} {b:12g} count {verdict}")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0],
        allow_abbrev=False,
    )
    parser.add_argument(
        "command", nargs="?", default="run",
        choices=("run", "golden", "repeat", "manifest"),
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"seconds one pass measures for (default {metric_defs.RUN_SECONDS})",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end pass only, 1: per-layer pass only, omitted: both",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny tier for tests")
    parser.add_argument(
        "--golden", type=pathlib.Path, default=GOLDEN_PATH,
        help="golden records to compare default-seed runs with",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "manifest":
        print(json.dumps(metric_defs.manifest(), indent=2))
        return 0
    handler = {"run": _run, "golden": _golden, "repeat": _repeat}[args.command]
    try:
        status = handler(args)
    except DeadlineExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    leftovers = _leftovers()
    if leftovers:
        print(f"left running: {leftovers}", file=sys.stderr)
        return 4
    return status
