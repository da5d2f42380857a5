"""Every workload on the smoke tier: metrics, modes, oracle, determinism."""

import json

import pytest
from repro.workload.wan import wan_fingerprint

from benchmarks.e2e import cli, inputs, metrics
from benchmarks.e2e.runner import run_pass
from benchmarks.e2e.trace import EXACT_COUNTS, Tracer
from benchmarks.e2e.workloads import make_workload

SEED = cli.DEFAULT_SEED
NAMES = cli.WORKLOAD_NAMES


@pytest.fixture(scope="module")
def golden():
    records = cli._load_golden(cli.GOLDEN_PATH, inputs.SMOKE, SEED)
    assert set(records) == set(NAMES), "regenerate with: python -m benchmarks.e2e golden"
    return records


@pytest.fixture(scope="module")
def passes(golden):
    return {
        (name, traced): run_pass(name, inputs.SMOKE, SEED, 0.3, traced, golden[name])
        for name in NAMES
        for traced in (False, True)
    }


def test_every_declared_metric_is_reported_with_its_unit(passes):
    for (name, traced), result in passes.items():
        declared = metrics.PER_LAYER if traced else [m[:3] for m in metrics.END_TO_END]
        assert result.correct, result.errors
        assert {n: unit for n, (_, unit) in result.metrics.items()} == {
            n: unit for n, unit, _ in declared
        }
        printed = json.loads(result.as_json())
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert printed["attempted"] >= 1 and printed["failed"] == 0
        if not traced:
            assert all(value > 0 for value, _ in result.metrics.values())


def test_workloads_separate_the_layers(passes):
    layer = {name: {m: v for m, (v, _) in passes[name, True].metrics.items()} for name in NAMES}
    assert layer["change_small"]["incremental.widened_share"] == 0
    assert layer["change_widened"]["incremental.widened_share"] == 1
    assert layer["change_small"]["routing.bgp.inputs_share"] < 0.1
    assert layer["change_widened"]["routing.bgp.inputs_share"] == 1
    for name in ("base_cold", "kfailure_sweep"):
        assert layer[name]["core.intents.share"] == 0
        assert layer[name]["rcl.specs"] == 0
    assert layer["kfailure_sweep"]["traffic.flows"] == 0
    assert layer["base_cold"]["kfailure.scenarios_total"] == 0
    total = layer["kfailure_sweep"]["kfailure.scenarios_total"]
    assert 0 < layer["kfailure_sweep"]["kfailure.violating_scenarios"] <= 0.25 * total
    for name in NAMES:
        assert layer[name]["core.pipeline.self_share"] <= 0.15


def test_op_modes_and_kfailure_property():
    tracer = Tracer()
    for name, mode in (("change_small", "incremental"), ("change_widened", "widened")):
        workload = make_workload(name, inputs.SMOKE, SEED)
        workload.setup(tracer)
        for index in range(workload.op_count()):
            assert workload.run(index).incremental.mode == mode
    sweep = make_workload("kfailure_sweep", inputs.SMOKE, SEED)
    sweep.setup(tracer)  # raises unless the property holds on the base network
    sweep.prelude(0)
    assert sweep.error(sweep.run(0)) is None


def _inputs_digest(seed):
    w4 = inputs.make_w4(inputs.SMOKE, seed)
    sweep = inputs.make_sweep(inputs.SMOKE, seed)
    plans = inputs.small_plans(w4, seed, 4) + inputs.widened_plans(w4, seed, 3)
    return (
        wan_fingerprint(w4.model),
        [str(route) for route in w4.routes],
        [repr(flow) for flow in w4.flows],
        [(p.name, p.prefix, p.build().device_commands, p.build().topology_ops) for p in plans],
        [link.endpoints for link in sweep.links],
        sweep.isp,
    )


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert _inputs_digest(3) == _inputs_digest(3)
    assert _inputs_digest(3) != _inputs_digest(4)


def test_exact_counts_repeat(passes, golden):
    for name in NAMES:
        again = run_pass(name, inputs.SMOKE, SEED, 0.3, True, golden[name])
        for metric in EXACT_COUNTS:
            assert again.metrics[metric] == passes[name, True].metrics[metric]


def test_other_seeds_are_checked_by_the_sampled_oracle_arm():
    for name in NAMES:
        result = run_pass(name, inputs.SMOKE, SEED + 1, 0.3, False, None)
        assert result.correct, result.errors


def test_corrupted_golden_fails_the_run(tmp_path, capsys):
    document = json.loads(cli.GOLDEN_PATH.read_text())
    record = document["smoke"]["workloads"]["change_small"][0]
    record["rib"] = "0" * 64
    broken = tmp_path / "golden.json"
    broken.write_text(json.dumps(document))
    status = cli.main(
        ["--smoke", "--workload", "change_small", "--trace", "0", "--golden", str(broken)]
    )
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert printed["correct"] is False and printed["failed"] > 0
