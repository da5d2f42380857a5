"""The daemon's hot state: everything worth keeping between requests.

Four layers, all keyed by *content* so identical inputs share state no
matter how clients name them:

* **Model cache** — parsed snapshot files (``model`` + ``routes`` +
  ``flows``) keyed by the SHA-256 of the file bytes. A stat fingerprint
  (path, mtime, size) short-circuits re-hashing unchanged files.
* **Verifier cache** — one prepared :class:`~repro.core.ChangeVerifier`
  per (model hash, backend, incremental): the base world is simulated once
  (``prepare_base``) and every later verify / what-if on that model
  warm-starts from its base RIBs (held by reference), base traffic spreads,
  cached IGP, and local inputs.
* **k-failure engine cache** — one prepared
  :class:`~repro.kfailure.KFailureEngine` per (model hash, backend,
  engine params): the base fixpoint and blast-analyzer indexes are paid
  once; repeat k-failure jobs on the same snapshot
  re-explore from the shared warm state.
* **Result cache** — finished job results keyed by
  (model hash, canonical request fingerprint): an identical request on an
  identical model returns the cached verdict without touching a backend.

Verifiers are not re-entrant (one shared incremental engine), so each cache
entry carries a lock; two jobs on the *same* model+backend serialize, jobs
on different models run concurrently.

All caches are LRU-bounded so a long-lived daemon cannot grow without
limit. Cache traffic lands on the server-wide :class:`~repro.obs.RunContext`
as ``serve.*`` counters.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core import ChangeVerifier
from repro.exec import make_backend
from repro.obs import RunContext, ensure_context


@dataclass
class _VerifierEntry:
    verifier: ChangeVerifier
    lock: threading.Lock = field(default_factory=threading.Lock)
    prepared: bool = False


@dataclass
class _KFailureEntry:
    engine: Any  # KFailureEngine (lazy import to keep state.py light)
    lock: threading.Lock = field(default_factory=threading.Lock)


class HotState:
    """Content-keyed caches shared by every job the daemon runs."""

    def __init__(
        self,
        max_models: int = 8,
        max_results: int = 1024,
        ctx: Optional[RunContext] = None,
    ) -> None:
        self.ctx = ensure_context(ctx, "serve")
        self.max_models = max_models
        self.max_results = max_results
        self._lock = threading.Lock()
        #: model_hash -> loaded snapshot payload (model/routes/flows), LRU
        self._models: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: (path, mtime_ns, size) -> model_hash (stat fast path)
        self._stat_hashes: Dict[Tuple[str, int, int], str] = {}
        #: (model_hash, backend, incremental) -> prepared verifier
        self._verifiers: Dict[Tuple[str, str, bool], _VerifierEntry] = {}
        #: (model_hash, backend, engine params) -> prepared k-failure engine
        self._kfailure: Dict[Tuple[Any, ...], _KFailureEntry] = {}
        #: result-cache: fingerprint -> result dict, LRU
        self._results: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    # -- snapshot files --------------------------------------------------------

    def snapshot_hash(self, path: str) -> str:
        """SHA-256 of the snapshot file's bytes (stat-cached)."""
        import os

        stat = os.stat(path)
        stat_key = (os.path.abspath(path), stat.st_mtime_ns, stat.st_size)
        with self._lock:
            cached = self._stat_hashes.get(stat_key)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        model_hash = digest.hexdigest()
        with self._lock:
            self._stat_hashes[stat_key] = model_hash
        return model_hash

    def load_snapshot(self, path: str) -> Tuple[str, Dict[str, Any]]:
        """The parsed snapshot at ``path`` plus its content hash (cached)."""
        model_hash = self.snapshot_hash(path)
        with self._lock:
            snapshot = self._models.get(model_hash)
            if snapshot is not None:
                self._models.move_to_end(model_hash)
                self.ctx.count("serve.model_cache.hits")
                return model_hash, snapshot
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
        with self._lock:
            self._models[model_hash] = snapshot
            self._models.move_to_end(model_hash)
            self.ctx.count("serve.model_cache.misses")
            while len(self._models) > self.max_models:
                evicted_hash, _ = self._models.popitem(last=False)
                self._drop_verifiers(evicted_hash)
                self.ctx.count("serve.model_cache.evictions")
        return model_hash, snapshot

    def _drop_verifiers(self, model_hash: str) -> None:
        """Drop the verifiers of an evicted model (caller holds the lock)."""
        for key in [k for k in self._verifiers if k[0] == model_hash]:
            del self._verifiers[key]
        for key in [k for k in self._kfailure if k[0] == model_hash]:
            del self._kfailure[key]

    # -- prepared verifiers ----------------------------------------------------

    def verifier_for(
        self,
        model_hash: str,
        snapshot: Dict[str, Any],
        backend: str = "centralized",
        incremental: bool = True,
    ) -> _VerifierEntry:
        """The prepared-verifier entry for one (model, backend) pair.

        Creation is cheap; the expensive ``prepare_base`` run happens on
        first use, under the entry's lock, inside the job that needed it
        (so its cost lands on that job's spans).
        """
        key = (model_hash, backend, incremental)
        with self._lock:
            entry = self._verifiers.get(key)
            if entry is not None:
                self.ctx.count("serve.verifier_cache.hits")
                return entry
            self.ctx.count("serve.verifier_cache.misses")
            verifier = ChangeVerifier(
                snapshot["model"],
                snapshot["routes"],
                snapshot.get("flows", []),
                backend=make_backend(backend),
                incremental=incremental,
            )
            entry = _VerifierEntry(verifier=verifier)
            self._verifiers[key] = entry
            return entry

    # -- prepared k-failure engines --------------------------------------------

    def kfailure_for(
        self,
        model_hash: str,
        snapshot: Dict[str, Any],
        backend: str = "centralized",
        **engine_options: Any,
    ) -> _KFailureEntry:
        """The prepared k-failure engine for one (model, backend, params) key.

        The engine's expensive state — the base fixpoint, the blast
        analyzer's dependency indexes, and the frozen base world — are
        paid once per key on first ``check``; later k-failure jobs against
        the same snapshot warm-start from it. Engines are not re-entrant
        (scenario overlays mutate the shared model), so the entry carries a
        lock like the verifier cache.
        """
        from repro.kfailure import KFailureEngine

        key = (model_hash, backend) + tuple(sorted(engine_options.items()))
        with self._lock:
            entry = self._kfailure.get(key)
            if entry is not None:
                self.ctx.count("serve.kfailure_cache.hits")
                return entry
            self.ctx.count("serve.kfailure_cache.misses")
            engine = KFailureEngine(
                snapshot["model"],
                snapshot["routes"],
                backend=make_backend(backend),
                **engine_options,
            )
            entry = _KFailureEntry(engine=engine)
            self._kfailure[key] = entry
            return entry

    # -- result cache ----------------------------------------------------------

    @staticmethod
    def result_key(model_hash: str, request: Dict[str, Any]) -> str:
        """Canonical fingerprint of one request against one model."""
        canonical = json.dumps(request, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256()
        digest.update(model_hash.encode("utf-8"))
        digest.update(b"\0")
        digest.update(canonical.encode("utf-8"))
        return digest.hexdigest()

    def result_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            result = self._results.get(key)
            if result is None:
                self.ctx.count("serve.result_cache.misses")
                return None
            self._results.move_to_end(key)
            self.ctx.count("serve.result_cache.hits")
            return dict(result)

    def result_put(self, key: str, result: Dict[str, Any]) -> None:
        with self._lock:
            self._results[key] = dict(result)
            self._results.move_to_end(key)
            while len(self._results) > self.max_results:
                self._results.popitem(last=False)
                self.ctx.count("serve.result_cache.evictions")

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "models": len(self._models),
                "verifiers": len(self._verifiers),
                "kfailure_engines": len(self._kfailure),
                "prepared_verifiers": sum(
                    1 for entry in self._verifiers.values() if entry.prepared
                ),
                "results": len(self._results),
                "counters": {
                    name: value
                    for name, value in self.ctx.counters().items()
                    if name.startswith("serve.")
                },
            }


__all__ = ["HotState"]
