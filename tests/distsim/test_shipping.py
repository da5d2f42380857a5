"""Zero-copy context shipping (``repro.distsim.shipping``).

The transport must be invisible: whatever payload goes into :func:`ship`
must come out of :func:`load` unchanged, whether it rode a shared-memory
segment or the inline-bytes fallback, and the master must be able to
release the segment exactly once regardless of how many workers attached.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro import perfopts
from repro.distsim import shipping
from repro.distsim.shipping import InlineToken, ShipToken, load, ship

_SHM_AVAILABLE = shipping._shared_memory is not None

PAYLOAD = {"model": ["r1", "r2"], "ribs": {"r1": [("10.0.0.0/24", 100)]}, "n": 7}


@pytest.fixture(autouse=True)
def shm_ship_on():
    """These tests are about the shared-memory path: pin its flag on."""
    with perfopts.configured(shm_ship=True):
        yield


class TestRoundtrip:
    def test_shared_memory_roundtrip(self):
        if not _SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        with ship(PAYLOAD) as shipped:
            assert shipped.via_shared_memory
            assert isinstance(shipped.token, ShipToken)
            assert shipped.token.length == shipped.nbytes > 0
            assert load(shipped.token) == PAYLOAD
            # Lazy / repeated loads: the master keeps the segment alive, so
            # every worker can attach independently.
            assert load(shipped.token) == PAYLOAD

    def test_flag_off_ships_inline(self):
        with perfopts.configured(shm_ship=False):
            with ship(PAYLOAD) as shipped:
                assert not shipped.via_shared_memory
                assert isinstance(shipped.token, InlineToken)
                assert load(shipped.token) == PAYLOAD

    def test_empty_payload_stays_inline(self):
        # pickle.dumps(None) is non-empty, but a zero-length segment guard
        # exists for the degenerate blob; exercise the smallest payloads.
        with ship(None) as shipped:
            assert load(shipped.token) is None

    def test_token_is_tiny_compared_to_payload(self):
        if not _SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        big = {"blob": list(range(50_000))}
        with ship(big) as shipped:
            token_size = len(pickle.dumps(shipped.token))
            assert token_size < 256
            assert shipped.nbytes > 10 * token_size


class TestLifetime:
    def test_close_unlinks_segment(self):
        if not _SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        shipped = ship(PAYLOAD)
        token = shipped.token
        assert isinstance(token, ShipToken)
        shipped.close()
        with pytest.raises((FileNotFoundError, OSError)):
            load(token)

    def test_close_is_idempotent(self):
        shipped = ship(PAYLOAD)
        shipped.close()
        shipped.close()  # second close must be a no-op, not an error

    def test_failed_construction_leaves_no_segment(self):
        # An unpicklable payload raises from __init__; __del__ must still
        # find a consistent object (regression: _segment unset on that path).
        with pytest.raises(Exception):
            ship(lambda: None)


def _child_load(token, queue):  # pragma: no cover - runs in a child process
    queue.put(load(token))


class TestCrossProcess:
    def test_worker_process_loads_shipped_payload(self):
        if not _SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        ctx = multiprocessing.get_context()
        with ship(PAYLOAD) as shipped:
            queue = ctx.Queue()
            worker = ctx.Process(target=_child_load, args=(shipped.token, queue))
            worker.start()
            received = queue.get(timeout=30)
            worker.join(timeout=30)
            assert worker.exitcode == 0
            assert received == PAYLOAD
        # The worker's resource-tracker unregistration must not have
        # unlinked the master's segment behind its back: shipping again
        # (and loading in-process) still works.
        with ship(PAYLOAD) as again:
            assert load(again.token) == PAYLOAD
