"""Closed-loop measurement of one workload: one client, one op at a time.

An *untraced* pass yields the end-to-end metrics, a *traced* pass the
per-layer ones; the traced pass is never the source of an end-to-end
number.

**Rounds, clocks and the noise filter.** A workload has a fixed list of
distinct ops (plans; one sweep; one cold build). The timed region runs the
list in rounds until ``seconds`` have passed, and at least ``MIN_ROUNDS``
times. On the shared 2-vCPU sandbox this benchmark was defined on, load
outside the VM slows *identical* ops by 20–70 % for seconds at a time,
drifts by ±25 % over minutes, and at times steals half the CPU for ten
minutes on end; all of it only ever adds time. Three things are done:

* ops are timed on the **CPU clock** (user + system time of the process and
  its children). The pipeline under test is single-threaded and never
  blocks, so on an idle machine CPU and wall time agree to under 1 %
  (the printed off-cpu share shows it), while the wall clock also counts
  the time the hypervisor gave the core to someone else;
* an op's latency is the **fastest of its rounds**; ``verdict_p50_s`` /
  ``verdict_p80_s`` are quantiles of those latencies *over the distinct
  ops*, not over repeats;
* every time is converted to **reference seconds** (``calibration.py``).

The raw wall and CPU distributions of all timed ops are printed next to
the metrics.
"""

from __future__ import annotations

import gc
import json
import pathlib
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.e2e import calibration
from benchmarks.e2e import metrics as metric_defs
from benchmarks.e2e import trace
from benchmarks.e2e.inputs import Tier
from benchmarks.e2e.workloads import Record, Workload, make_workload

#: complete set-ups per untraced pass; ``setup_s`` is their median
SETUP_REPEATS = 3
#: every distinct op is timed at least this often
MIN_ROUNDS = 3
#: calibration kernel runs before every set-up and op, and after the last op
CALIBRATION_SAMPLES = 2

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


@dataclass
class PassResult:
    """What one pass over one workload measured and checked."""

    workload: str
    traced: bool
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: human-readable lines (sample counts, quartiles, work units)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def as_json(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def _cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _decile(values: List[float], tenth: int) -> float:
    """Linear-interpolated decile of a small sample (5 is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[tenth - 1]


def _spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} value={values[0]:.4f}" if values else "n=0"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (
        f"n={len(values)} min={min(values):.4f} q1={q1:.4f} "
        f"median={q2:.4f} q3={q3:.4f} max={max(values):.4f}"
    )


class _Checker:
    """Compares what ops produced with the golden or the sampled oracle arm."""

    def __init__(self, workload: Workload, golden: Optional[List[Record]]) -> None:
        """Built after set-up: decides which ops the oracle will re-derive."""
        self.workload = workload
        self.golden = golden
        self.hints: Dict[int, Record] = (
            {i: {} for i in range(workload.op_count())}
            if golden is not None
            else workload.sample()
        )
        self.actual: Dict[int, Record] = {}
        self.signatures: Dict[int, Tuple] = {}

    def observe(self, index: int, outcome: Any) -> Optional[str]:
        """After an op, outside its timed region; returns an error or None."""
        wl = self.workload
        error = wl.error(outcome)
        signature = wl.signature(outcome)
        first = self.signatures.setdefault(index, signature)
        if error is None and signature != first:
            error = f"not repeatable: {signature} after {first}"
        if index in self.hints and index not in self.actual:
            self.actual[index] = wl.record(outcome, self.hints[index])
        return error

    def verify(self) -> Dict[int, str]:
        """After timing: op index -> how it differs from the oracle."""
        wrong: Dict[int, str] = {}
        for index, actual in self.actual.items():
            if self.golden is not None:
                if index >= len(self.golden):
                    wrong[index] = "golden has no record for this op"
                    continue
                expected = self.golden[index]
            else:
                expected = self.workload.oracle_record(index, self.hints[index])
            differing = [k for k, v in expected.items() if actual.get(k) != v]
            if differing:
                wrong[index] = f"differs from the oracle in {differing}"
        return wrong


def run_pass(
    name: str,
    tier: Tier,
    seed: int,
    seconds: float,
    traced: bool,
    golden: Optional[List[Record]] = None,
) -> PassResult:
    """Set up, measure and check one workload; see the module docstring."""
    result = PassResult(workload=name, traced=traced)
    workload = make_workload(name, tier, seed)
    tracer = trace.Tracer()
    if traced:
        trace.install(tracer)
    try:
        _measure(workload, seconds, tracer, traced, golden, result)
    finally:
        trace.uninstall(tracer)
    return result


def _timed_op(
    workload: Workload,
    index: int,
    tracer: trace.Tracer,
    tracing: bool,
    execution: int,
    calibrate: Callable[[], None],
) -> Tuple[Any, float, float]:
    """One op: untimed prelude, machine calibration, ``gc.collect()``, timed body.

    The tracer records only between ``open_op`` and ``close_op``; left
    closed, its spans and wrappers are inert.
    """
    if tracing:
        tracer.open_op(execution, trace.SETUP)
    try:
        workload.prelude(index)
    finally:
        tracer.close_op()
    calibrate()
    gc.collect()
    if tracing:
        tracer.open_op(execution, trace.OP)
    try:
        cpu_started = _cpu_seconds()
        started = time.perf_counter()
        with tracer.span(trace.ROOT):
            outcome = workload.run(index)
        wall = time.perf_counter() - started
        cpu = _cpu_seconds() - cpu_started
    finally:
        tracer.close_op()
    return outcome, wall, cpu


def _measure(
    workload: Workload,
    seconds: float,
    tracer: trace.Tracer,
    traced: bool,
    golden: Optional[List[Record]],
    result: PassResult,
) -> None:
    machine: List[float] = []

    def calibrate() -> None:
        machine.extend(
            calibration.pair_seconds() for _ in range(CALIBRATION_SAMPLES)
        )

    setups: List[float] = []
    for _ in range(1 if traced else SETUP_REPEATS):
        calibrate()
        gc.collect()
        started = _cpu_seconds()
        if traced:
            tracer.open_op(-1, trace.SETUP)
        workload.setup(tracer)
        tracer.close_op()
        setups.append(_cpu_seconds() - started)

    checker = _Checker(workload, golden)

    # plan index -> [(wall, cpu)] per kind of round
    plain: Dict[int, List[Tuple[float, float]]] = {}
    with_trace: Dict[int, List[Tuple[float, float]]] = {}
    work: Dict[int, int] = {}
    op_errors: Dict[int, str] = {}
    execution = 0
    rounds = 0
    region_started = time.perf_counter()
    deadline = region_started + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        # a traced pass alternates plain and traced rounds, so the two see
        # the same machine and their ratio is the tracing overhead
        tracing = traced and rounds % 2 == 1
        samples = with_trace if tracing else plain
        for index in range(workload.op_count()):
            if rounds >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
            execution += 1
            result.attempted += 1
            try:
                outcome, wall, cpu = _timed_op(
                    workload, index, tracer, tracing, execution, calibrate
                )
            except Exception:  # an op that raises is a failed op, not a crash
                op_errors[index] = traceback.format_exc(limit=3).strip().splitlines()[-1]
                continue
            samples.setdefault(index, []).append((wall, cpu))
            work[index] = workload.work(outcome)
            error = checker.observe(index, outcome)
            if error is not None:
                op_errors[index] = error
            del outcome
        rounds += 1
    region = time.perf_counter() - region_started
    calibrate()
    scale = calibration.scale(machine)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_errors.update(checker.verify())
    for index, reason in sorted(op_errors.items()):
        result.errors.append(f"{workload.name} op {index}: {reason}")
    # every execution of an op that went wrong counts as failed
    result.failed = sum(
        max(1, len(plain.get(i, ())) + len(with_trace.get(i, ()))) for i in op_errors
    )

    if not plain:
        result.errors.append(f"{workload.name}: no op completed")
        result.failed = max(result.failed, 1)
        return
    # An op's latency is its fastest round, on the CPU clock (module docstring).
    best = {i: min(cpu for _, cpu in runs) for i, runs in plain.items()}
    walls = [wall for runs in plain.values() for wall, _ in runs]
    cpus = [cpu for runs in plain.values() for _, cpu in runs]
    result.notes.append(
        f"{rounds} rounds over {workload.op_count()} distinct ops, "
        f"timed region {region:.1f}s wall"
    )
    result.notes.append(f"raw op wall s: {_spread(walls)}")
    result.notes.append(
        f"raw op cpu s:  {_spread(cpus)} (off-cpu share of the timed ops "
        f"{1 - sum(cpus) / sum(walls):.3f})"
    )
    result.notes.append(f"best-of-rounds op cpu s: {_spread(list(best.values()))}")
    result.notes.append(
        f"machine: kernel pair cpu s {_spread(machine)}; measured x {scale:.4f} "
        f"= reference seconds (applied to every time below)"
    )

    if not traced:
        total_work = sum(work[i] for i in best)
        result.notes.append(f"setup cpu s: {_spread(setups)}")
        result.notes.append(
            f"work unit: {workload.work_unit}, {total_work} per round"
        )
        latencies = [scale * value for value in best.values()]
        values = {
            "setup_s": scale * statistics.median(setups),
            "verdict_p50_s": _decile(latencies, 5),
            "verdict_p80_s": _decile(latencies, 8),
            "work_per_s": total_work / sum(latencies),
            "cpu_s_per_op": statistics.fmean(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        for metric, unit, _better, _bound in metric_defs.END_TO_END:
            result.metrics[metric] = (values[metric], unit)
        return

    traced_best = {i: min(cpu for _, cpu in runs) for i, runs in with_trace.items()}
    layer = trace.layer_metrics(
        tracer.spans, workload.total_inputs, traced_best, best
    )
    for metric, unit, _better in metric_defs.PER_LAYER:
        value = layer[metric] * scale if unit == "s" else layer[metric]
        result.metrics[metric] = (value, unit)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}.trace.json"
    path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": workload.seed,
                "tier": workload.tier.name,
                "reference_seconds_per_measured_second": scale,
                "metrics": {m: v for m, (v, _) in result.metrics.items()},
                "spans": trace.spans_as_json(tracer.spans),
            }
        )
    )
    result.notes.append(f"{len(tracer.spans)} spans written to {path}")
