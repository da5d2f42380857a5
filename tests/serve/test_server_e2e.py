"""End-to-end daemon tests over real sockets: the wire, events, and drain.

The daemon runs its own asyncio loop on a background thread (exactly the
topology of a real deployment minus fork/exec); tests talk to it through
the blocking :class:`~repro.serve.client.ServeClient`.
"""

import asyncio
import threading

import pytest

from repro.core import ChangeVerifier
from repro.core.planjson import plan_from_json
from repro.distsim import rib_fingerprint
from repro.serve import ServeClient, ServeDaemon, ServerError
from repro.serve.protocol import SERVER_ID

from tests.serve.conftest import PLAN, WHATIF_PLAN, write_snapshot


class DaemonHarness:
    """Run a ServeDaemon on a dedicated thread; expose its port."""

    def __init__(self, **daemon_kwargs):
        daemon_kwargs.setdefault("port", 0)
        self._kwargs = daemon_kwargs
        self.daemon = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(timeout=30.0), "daemon failed to start"

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self.daemon = ServeDaemon(**self._kwargs)
        await self.daemon.start()
        self._ready.set()
        await self.daemon.run_until_shutdown(install_signals=False)

    @property
    def port(self):
        return self.daemon.port

    def client(self, **kwargs):
        kwargs.setdefault("connect_retries", 10)
        return ServeClient(port=self.port, **kwargs)

    def join(self, timeout=30.0):
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "daemon thread did not exit"


@pytest.fixture()
def harness():
    h = DaemonHarness(slots=2)
    yield h
    if h._thread.is_alive():
        try:
            with h.client() as client:
                client.shutdown(drain=False)
        except OSError:
            pass
        h.join()


def submit_verify(client, snapshot_path, **extra):
    spec = {"kind": "verify", "snapshot_path": snapshot_path,
            "plan": dict(PLAN)}
    spec.update(extra)
    return client.submit(spec)


class TestWire:
    def test_ping(self, harness):
        with harness.client() as client:
            assert client.ping()["server"] == SERVER_ID

    def test_unknown_job_and_bad_spec_error_codes(self, harness):
        with harness.client() as client:
            with pytest.raises(ServerError) as err:
                client.status("job-999999")
            assert err.value.code == "unknown-job"
            with pytest.raises(ServerError) as err:
                client.submit({"kind": "nonsense"})
            assert err.value.code == "bad-request"

    def test_perf_flags_rejected_at_submit(self, harness, snapshot_path):
        # Perf flags are process-wide; any per-job field is refused, even
        # an empty or well-formed one.
        with harness.client() as client:
            for flags in ({}, {"spread_memo": False}, {"compiled_fib": False}):
                with pytest.raises(ServerError) as err:
                    submit_verify(client, snapshot_path, perf_flags=flags)
                assert err.value.code == "bad-request"
                assert "perf_flags is not accepted" in str(err.value)
                assert "--perfopts-off" in str(err.value)
            assert client.stats()["scheduler"]["jobs"] == {}

    @pytest.mark.parametrize(
        "backend", ["bogus", "distributed-process", "modular"]
    )
    def test_unknown_backend_rejected_at_submit(
        self, harness, snapshot_path, backend
    ):
        with harness.client() as client:
            with pytest.raises(ServerError) as err:
                submit_verify(client, snapshot_path, backend=backend)
            assert err.value.code == "bad-request"
            assert f"unknown backend {backend!r}" in str(err.value)
            assert "distributed-thread" in str(err.value)
            assert client.stats()["scheduler"]["jobs"] == {}

    @pytest.mark.parametrize(
        "frame",
        [
            {"op": ["x"]},
            {"op": "submit", "job": {"kind": "sleep", "priority": []}},
            {"op": "submit", "job": {"kind": "sleep", "isolation": ["thread"]}},
            {"op": "submit", "job": {"kind": "sleep", "backend": ["modular"]}},
            {
                "op": "submit",
                "job": {"kind": "kfailure", "snapshot_path": "s.pkl", "k": True},
            },
            {"op": "status", "job_id": ["a"]},
            {"op": "cancel", "job_id": {"a": 1}},
        ],
        ids=[
            "op-list",
            "priority-list",
            "isolation-list",
            "backend-list",
            "k-bool",
            "status-job-id-list",
            "cancel-job-id-object",
        ],
    )
    def test_malformed_frame_is_answered_and_connection_kept(
        self, harness, frame
    ):
        with harness.client() as client:
            with pytest.raises(ServerError) as err:
                client.request(frame)
            assert err.value.code == "bad-request"
            assert client.ping()["server"] == SERVER_ID
            assert client.stats()["scheduler"]["jobs"] == {}

    def test_result_before_terminal_errors(self, harness, snapshot_path):
        with harness.client() as client:
            job_id = client.submit({"kind": "sleep", "seconds": 1.0})
            with pytest.raises(ServerError) as err:
                client.result(job_id, wait=False)
            assert err.value.code == "not-finished"
            record = client.result(job_id, wait=True)
            assert record["state"] == "done"


class TestVerifyOverTheWire:
    def test_verdict_matches_one_shot_and_resubmit_hits_cache(
        self, harness, snapshot_path
    ):
        with harness.client() as client:
            job_id = submit_verify(client, snapshot_path)
            record = client.result(job_id, wait=True)
            assert record["state"] == "done"
            result = record["result"]
            assert result["cache"] == "miss"

            # One-shot ground truth on the same snapshot + plan.
            import pickle

            with open(snapshot_path, "rb") as handle:
                snapshot = pickle.load(handle)
            verifier = ChangeVerifier(
                snapshot["model"], snapshot["routes"], snapshot["flows"]
            )
            report = verifier.verify(
                plan_from_json(dict(PLAN), flows_available=True)
            )
            assert result["ok"] == report.ok
            assert result["verdict"] == ("pass" if report.ok else "risk")
            assert (
                result["rib_fingerprint"]
                == rib_fingerprint(report.updated_world.device_ribs).hex()
            )

            # Identical resubmission: served from the result cache,
            # byte-identical verdict material.
            again = client.result(
                submit_verify(client, snapshot_path), wait=True
            )
            assert again["result"]["cache"] == "hit"
            assert (
                again["result"]["rib_fingerprint"]
                == result["rib_fingerprint"]
            )
            assert again["result"]["summary"] == result["summary"]

    def test_whatif_defaults_to_pre_equals_post(self, harness, snapshot_path):
        with harness.client() as client:
            job_id = client.submit(
                {"kind": "whatif", "snapshot_path": snapshot_path,
                 "plan": dict(WHATIF_PLAN)}
            )
            record = client.result(job_id, wait=True)
            assert record["state"] == "done"
            # Failing a link moves routes, so PRE = POST flags a risk.
            assert record["result"]["verdict"] == "risk"
            assert record["result"]["intents_checked"] == 1


class TestEventStream:
    def test_stream_replays_history_and_runs_to_done(
        self, harness, snapshot_path
    ):
        with harness.client() as client:
            job_id = submit_verify(client, snapshot_path)
            client.result(job_id, wait=True)  # finish first: pure replay
            events = list(client.events(job_id))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "job.queued"
        assert "job.started" in kinds
        assert kinds[-1] == "job.done"
        span_names = {
            event["name"] for event in events if event["event"] == "span"
        }
        # RunContext span closes surfaced live through the subscription hook.
        assert "prepare_base" in span_names
        assert "verify" in span_names

    def test_live_stream_while_running(self, harness):
        with harness.client() as client:
            job_id = client.submit({"kind": "sleep", "seconds": 1.2})
            with harness.client() as streamer:
                events = list(streamer.events(job_id))
        kinds = [event["event"] for event in events]
        assert "heartbeat" in kinds
        assert kinds[-1] == "job.done"


class TestDrainOverTheWire:
    def test_shutdown_drains_inflight_work(self, tmp_path):
        harness = DaemonHarness(slots=1)
        snapshot = write_snapshot(tmp_path / "drain.pkl", seed=23)
        with harness.client() as client:
            job_id = submit_verify(client, snapshot)
            sleeper = client.submit({"kind": "sleep", "seconds": 0.3})
            client.shutdown(drain=True)
            # Draining daemons reject new submissions...
            with pytest.raises(ServerError) as err:
                client.submit({"kind": "sleep", "seconds": 0.1})
            assert err.value.code == "draining"
            # ...but in-flight work still finishes before the exit.
            assert client.result(job_id, wait=True)["state"] == "done"
            assert client.result(sleeper, wait=True)["state"] == "done"
        harness.join()
