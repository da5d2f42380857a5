"""``BENCHMARK.json`` is what ``benchmarks.e2e.metrics`` defines, within the contract."""

import json
import pathlib
import re

from benchmarks.e2e import metrics

ROOT = pathlib.Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_metrics():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == metrics.manifest()


def test_manifest_meets_the_contract():
    manifest = metrics.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = (
        [w["name"] for w in manifest["workloads"]]
        + [m["name"] for m in manifest["end_to_end"]]
        + [m["name"] for m in manifest["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in manifest["end_to_end"])}
    ]
    assert len(json.dumps(manifest)) < 64 * 1024
