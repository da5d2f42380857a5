"""The ``repro serve`` wire protocol: newline-delimited JSON over TCP.

Every request is one JSON object on one line; every response is one JSON
object on one line — except ``events``, which streams one NDJSON event per
line and terminates with a ``{"event": "job.done", ...}`` sentinel. The
protocol is deliberately transport-trivial so the blocking client
(:mod:`repro.serve.client`) is a socket plus ``makefile``.

Requests (``op`` field):

``ping``
    Liveness probe. Response: ``{"ok": true, "server": "repro-serve/1"}``.
``submit``
    Enqueue a job. Body: ``{"op": "submit", "job": <job spec>}``. The job
    spec carries ``kind`` (``verify`` | ``whatif`` | ``simulate`` |
    ``sleep``), ``snapshot_path`` (a snapshot ``.pkl`` on the daemon's
    filesystem), ``plan`` (the change-plan JSON for verify/whatif),
    ``tenant``, ``priority`` (``high`` | ``normal`` | ``batch``),
    ``isolation`` (``thread`` | ``process``), ``backend`` (one of
    :data:`repro.exec.BACKEND_NAMES`). Response carries the
    assigned ``job_id``; quota violations and a draining daemon reject with
    ``{"ok": false, "error": ...}``.
``status``
    Body: ``{"op": "status", "job_id": ...}``. Response: the job record
    (state, tenant, priority, cache disposition, timings, worker pid).
``result``
    Like ``status`` but errors unless the job is terminal; ``"wait": true``
    blocks until it is.
``events``
    Body: ``{"op": "events", "job_id": ...}``. Streams the job's progress
    events from the beginning (so late subscribers replay history), then
    live until terminal. Event kinds: ``job.queued``, ``job.started``,
    ``span`` (derived from RunContext span closes), ``job.done``.
``cancel``
    Cancel a queued job (always) or a running one (process isolation only;
    thread-mode cancellation is best-effort, discarding the result).
``stats``
    Scheduler + hot-state cache counters.
``shutdown``
    ``{"op": "shutdown", "drain": true}`` finishes queued and running work
    first; ``drain: false`` aborts running process-jobs.

Error responses are ``{"ok": false, "error": "<message>", "code": "<slug>"}``
with codes ``bad-request``, ``unknown-job``, ``quota-exceeded``,
``draining``, ``not-finished``, ``job-failed``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.exec.base import BACKEND_NAMES

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7341
SERVER_ID = "repro-serve/1"

#: Priority classes, lower number = served first.
PRIORITY_CLASSES = {"high": 0, "normal": 1, "batch": 2}

JOB_KINDS = ("verify", "whatif", "simulate", "kfailure", "sleep")
ISOLATION_MODES = ("thread", "process")


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol frame: compact JSON + newline."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one frame; raises ``ValueError`` on malformed input."""
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("protocol frames must be JSON objects")
    return message


def error(message: str, code: str = "bad-request") -> Dict[str, Any]:
    return {"ok": False, "error": message, "code": code}


def ok(**fields: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": True}
    response.update(fields)
    return response


def validate_job_spec(spec: Any) -> Optional[str]:
    """Returns a human-readable problem with a submitted job spec, or None."""
    if not isinstance(spec, dict):
        return "job spec must be an object"
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        return f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
    if kind in ("verify", "whatif"):
        if not isinstance(spec.get("plan"), dict):
            return f"{kind} jobs need a 'plan' object"
        if kind == "verify" and "change_type" not in spec["plan"]:
            return "verify plans need a 'change_type'"
    if kind in ("verify", "whatif", "simulate", "kfailure"):
        if not isinstance(spec.get("snapshot_path"), str):
            return f"{kind} jobs need a 'snapshot_path'"
    if kind == "kfailure":
        k = spec.get("k", 1)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            return f"kfailure jobs need a positive integer 'k', got {k!r}"
    priority = spec.get("priority", "normal")
    if not isinstance(priority, str) or priority not in PRIORITY_CLASSES:
        return (f"unknown priority {priority!r}; expected one of "
                f"{sorted(PRIORITY_CLASSES)}")
    isolation = spec.get("isolation", "thread")
    if not isinstance(isolation, str) or isolation not in ISOLATION_MODES:
        return (f"unknown isolation {isolation!r}; expected one of "
                f"{ISOLATION_MODES}")
    backend = spec.get("backend", "centralized")
    if not isinstance(backend, str) or backend not in BACKEND_NAMES:
        return (f"unknown backend {backend!r}; expected one of "
                f"{BACKEND_NAMES}")
    if "perf_flags" in spec:
        return ("perf_flags is not accepted: perf flags are process-wide "
                "test switches (pytest --perfopts-off), not per-job options")
    return None


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ISOLATION_MODES",
    "JOB_KINDS",
    "PRIORITY_CLASSES",
    "SERVER_ID",
    "decode",
    "encode",
    "error",
    "ok",
    "validate_job_spec",
]
