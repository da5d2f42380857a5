"""Verify jobs through the daemon runner: the one-shot report, no copies."""

from __future__ import annotations

import pickle
import re

from repro.core import ChangeVerifier
from repro.core.planjson import plan_from_json
from repro.serve.runner import execute_spec
from repro.serve.state import HotState

#: A static-route addition: bounded blast radius, so the incremental path.
STATIC_PLAN = {
    "name": "add-static",
    "change_type": "static-route-modification",
    "device_commands": {"region0-core1": ["ip route 172.20.0.0/16 10.255.0.2"]},
    "rcl_intents": ["not prefix = 172.20.0.0/16 => PRE = POST"],
}


def verify_spec(snapshot_path):
    return {
        "kind": "verify",
        "snapshot_path": snapshot_path,
        "plan": STATIC_PLAN,
        "no_cache": True,
    }


def without_elapsed(summary: str) -> str:
    return re.sub(r" in [0-9.]+s", "", summary)


class TestVerifyJobs:
    def test_daemon_summary_matches_one_shot(self, snapshot_path):
        result = execute_spec(verify_spec(snapshot_path), HotState())
        assert result["incremental_mode"] == "incremental"

        with open(snapshot_path, "rb") as handle:
            snapshot = pickle.load(handle)
        verifier = ChangeVerifier(
            snapshot["model"], snapshot["routes"], snapshot["flows"]
        )
        report = verifier.verify(plan_from_json(STATIC_PLAN))
        assert without_elapsed(result["summary"]) == without_elapsed(
            report.summary()
        )

    def test_prepare_base_pickles_nothing(self, snapshot_path, monkeypatch):
        calls = {"prepare_base": 0, "dumps": 0}
        real_dumps = pickle.dumps
        real_prepare = ChangeVerifier.prepare_base

        def counting_dumps(*args, **kwargs):
            calls["dumps"] += 1
            return real_dumps(*args, **kwargs)

        def prepare_base(self, ctx=None):
            calls["prepare_base"] += 1
            monkeypatch.setattr(pickle, "dumps", counting_dumps)
            try:
                return real_prepare(self, ctx)
            finally:
                monkeypatch.setattr(pickle, "dumps", real_dumps)

        monkeypatch.setattr(ChangeVerifier, "prepare_base", prepare_base)
        execute_spec(verify_spec(snapshot_path), HotState())
        assert calls == {"prepare_base": 1, "dumps": 0}
