"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def snapshot(tmp_path):
    path = tmp_path / "wan.pkl"
    code = main([
        "generate", "--regions", "2", "--cores", "2", "--prefixes", "20",
        "--flows", "100", "--output", str(path),
    ])
    assert code == 0
    return path


class TestGenerateSimulate:
    def test_generate_writes_snapshot(self, tmp_path, capsys):
        path = tmp_path / "fresh.pkl"
        assert main([
            "generate", "--regions", "2", "--prefixes", "10",
            "--flows", "10", "--output", str(path),
        ]) == 0
        assert "snapshot written" in capsys.readouterr().out
        assert path.exists()

    def test_simulate(self, snapshot, capsys):
        assert main(["simulate", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "route simulation" in out
        assert "converged=True" in out

    def test_simulate_with_traffic(self, snapshot, capsys):
        assert main(["simulate", str(snapshot), "--traffic"]) == 0
        out = capsys.readouterr().out
        assert "traffic simulation" in out
        assert "Gb/s" in out


class TestVerify:
    def write_plan(self, tmp_path, data):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_passing_plan_exits_zero(self, snapshot, tmp_path, capsys):
        plan = self.write_plan(tmp_path, {
            "name": "noop",
            "change_type": "os-patch",
            "device_commands": {},
            "rcl_intents": ["PRE = POST"],
        })
        assert main(["verify", str(snapshot), str(plan)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_risky_plan_exits_one(self, snapshot, tmp_path, capsys):
        plan = self.write_plan(tmp_path, {
            "name": "drop-link",
            "change_type": "topology-adjustment",
            "topology_ops": [
                # Failing an eBGP-facing link takes the session down and
                # loses that ISP's routes, so PRE = POST must fail.
                {"op": "fail-link", "a": "region0-border0", "b": "isp1"}
            ],
            "rcl_intents": ["PRE = POST"],
        })
        assert main(["verify", str(snapshot), str(plan)]) == 1
        assert "RISK DETECTED" in capsys.readouterr().out

    def test_rejected_plan_line_exits_two(self, snapshot, tmp_path, capsys):
        plan = self.write_plan(tmp_path, {
            "name": "bad-value",
            "change_type": "route-attributes-modification",
            "device_commands": {"region0-border1": [
                "route-map ISP-IN permit 10", " set local-preference abc",
            ]},
            "rcl_intents": ["PRE = POST"],
        })
        assert main(["verify", str(snapshot), str(plan)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("plan rejected: line 2: ")
        assert "[set local-preference abc]" in out

    def test_reachability_and_overload_intents(self, snapshot, tmp_path, capsys):
        plan = self.write_plan(tmp_path, {
            "name": "check",
            "change_type": "os-patch",
            "reachability_intents": [
                {"prefix": "10.0.0.0/24", "devices": ["region0-rr0"]}
            ],
            "no_overload": True,
        })
        main(["verify", str(snapshot), str(plan)])
        out = capsys.readouterr().out
        assert "reaches" in out
        assert "utilization" in out

    def test_lint_flag(self, snapshot, tmp_path, capsys):
        plan = self.write_plan(tmp_path, {
            "name": "unlinted",
            "change_type": "os-upgrade",
            "device_commands": {},
        })
        main(["verify", str(snapshot), str(plan), "--lint"])
        assert "lint:" in capsys.readouterr().out


class TestAuditRclVsb:
    def test_audit(self, snapshot, capsys):
        assert main(["audit", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "audit group-prefix-consistency" in out

    def test_rcl_valid(self, capsys):
        assert main(["rcl", "PRE = POST"]) == 0
        out = capsys.readouterr().out
        assert "valid RCL" in out and "size 1" in out

    def test_rcl_invalid(self, capsys):
        assert main(["rcl", "PRE = "]) == 1
        assert "parse error" in capsys.readouterr().out

    def test_vsb_table(self, capsys):
        assert main(["vsb"]) == 0
        out = capsys.readouterr().out
        assert "DIFFERS" in out
        assert "sr_tunnel_zeroes_igp_cost" in out


class TestTraceAndBackendFlags:
    def write_noop_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "name": "noop",
            "change_type": "os-patch",
            "device_commands": {},
            "rcl_intents": ["PRE = POST"],
        }), encoding="utf-8")
        return path

    def test_verify_trace_follows_schema(self, snapshot, tmp_path):
        plan = self.write_noop_plan(tmp_path)
        trace_path = tmp_path / "trace.json"
        assert main([
            "verify", str(snapshot), str(plan), "--trace", str(trace_path),
        ]) == 0
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.trace/v1"
        root = doc["root"]
        assert root["name"] == "verify"
        assert root["duration_seconds"] > 0
        children = [child["name"] for child in root.get("children", [])]
        assert "build_updated_model" in children
        assert "simulate_plan" in children
        assert "check_intents" in children
        assert doc["counters"]["intents.checked"] == 1

    def test_verify_through_distributed_backend(self, snapshot, tmp_path):
        plan = self.write_noop_plan(tmp_path)
        assert main([
            "verify", str(snapshot), str(plan),
            "--backend", "distributed-thread", "--workers", "2",
            "--route-subtasks", "6",
        ]) == 0

    def test_verify_rejects_modular_backend(self, snapshot, tmp_path, capsys):
        plan = self.write_noop_plan(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", str(snapshot), str(plan), "--backend", "modular"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'modular'" in err
        assert "'centralized', 'distributed-thread'" in err

    def test_submit_rejects_modular_backend(self, snapshot, tmp_path, capsys):
        plan = self.write_noop_plan(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", str(snapshot), str(plan), "--backend", "modular"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'modular'" in err
        assert "'centralized', 'distributed-thread'" in err

    def test_simulate_backends_agree_on_rib_rows(self, snapshot, capsys):
        assert main(["simulate", str(snapshot)]) == 0
        centralized = capsys.readouterr().out
        assert main([
            "simulate", str(snapshot), "--backend", "distributed-thread",
        ]) == 0
        distributed = capsys.readouterr().out
        import re

        def rib_rows(out):
            return re.search(r"(\d+) RIB rows", out).group(1)

        assert rib_rows(centralized) == rib_rows(distributed)

    @pytest.mark.parametrize("argv", [
        ["simulate", "{snapshot}", "--backend", "distributed-process"],
        ["kfailure", "{snapshot}", "--parallel", "thread"],
        ["chaos", "--mode", "both"],
    ])
    def test_removed_parallel_options_exit_two(self, snapshot, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(snapshot=snapshot) for arg in argv])
        assert excinfo.value.code == 2
        assert argv[-1] in capsys.readouterr().err

    def test_simulate_writes_trace(self, snapshot, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main([
            "simulate", str(snapshot), "--trace", str(trace_path),
        ]) == 0
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.trace/v1"
        assert doc["root"]["children"]

    def test_log_level_routes_events_to_stderr(self, snapshot, tmp_path, capsys):
        import logging

        plan = self.write_noop_plan(tmp_path)
        try:
            assert main([
                "--log-level", "INFO", "verify", str(snapshot), str(plan),
            ]) == 0
            err = capsys.readouterr().err
            assert "pipeline.verified" in err
        finally:
            logger = logging.getLogger("repro")
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_handler", False):
                    logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)
            logger.propagate = True


class TestCampaign:
    def test_campaign_detects_selected_fault(self, snapshot, capsys):
        assert main([
            "campaign", str(snapshot), "--fault", "unknown-vsb",
        ]) == 0
        out = capsys.readouterr().out
        assert "1/1 issue classes detected" in out

    def test_campaign_unknown_fault_exits_two(self, snapshot, capsys):
        assert main([
            "campaign", str(snapshot), "--fault", "not-a-fault",
        ]) == 2
        out = capsys.readouterr().out
        assert "unknown fault(s): not-a-fault" in out
        assert "known:" in out


class TestChaos:
    def test_chaos_invariant_holds_and_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "chaos.json"
        assert main([
            "chaos", "--seeds", "2", "--probability", "0.2",
            "--prefixes", "10", "--subtasks", "3",
            "--report", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "2/2 runs ok" in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert len(report["runs"]) == 2
        for run in report["runs"]:
            assert run["ok"]
            assert run["report"]["seed"] == run["seed"]
            assert run["report"]["fault_counters"]

    def test_chaos_reports_dead_letters_on_exhaustion(self, tmp_path, capsys):
        # probability 1.0 crashes every attempt: retries exhaust, the run
        # dead-letters, and that still satisfies the surfaced-failure
        # invariant — but the command exits non-zero only on violations,
        # so a fully dead-lettered sweep is still "ok".
        report_path = tmp_path / "chaos.json"
        assert main([
            "chaos", "--seeds", "1", "--probability", "1.0",
            "--prefixes", "10", "--subtasks", "2",
            "--max-retries", "2", "--report", str(report_path),
        ]) == 0
        assert "dead-lettered" in capsys.readouterr().out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["runs"][0]["outcome"] == "dead-lettered"
        assert report["runs"][0]["report"]["dead_letters"]
