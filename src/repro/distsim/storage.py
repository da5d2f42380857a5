"""Simulated cloud object storage (the paper stores subtask files on OSS).

Objects are pickled on write and unpickled on read, so subtask inputs and
results really cross a serialization boundary the way they do through a
cloud store. Per-key read counts and byte sizes are tracked — Figure 5(d)
is a CDF of how many RIB result files each traffic subtask loads.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List


class ObjectNotFound(KeyError):
    """Raised when reading a key that was never written."""


class StorageFault(IOError):
    """A transient storage I/O failure (raised by fault-injecting wrappers).

    Workers treat it like any other subtask crash: the attempt is recorded
    as failed with this reason and the master's retry machinery re-dispatches
    the subtask.
    """


@dataclass
class StorageStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_counts: Dict[str, int] = field(default_factory=dict)


class ObjectStore:
    """A thread-safe pickling key/value store."""

    def __init__(self) -> None:
        self._objects: Dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.stats = StorageStats()

    def put(self, key: str, value: Any) -> int:
        """Serialize and store; returns the object size in bytes."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._objects[key] = blob
            self.stats.writes += 1
            self.stats.bytes_written += len(blob)
        return len(blob)

    def get(self, key: str) -> Any:
        return pickle.loads(self.get_blob(key))

    def get_blob(self, key: str) -> bytes:
        """Fetch the raw serialized bytes of an object (counts as a read)."""
        with self._lock:
            blob = self._objects.get(key)
            if blob is None:
                raise ObjectNotFound(key)
            self.stats.reads += 1
            self.stats.bytes_read += len(blob)
            self.stats.read_counts[key] = self.stats.read_counts.get(key, 0) + 1
        return blob

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._objects

    def size_of(self, key: str) -> int:
        with self._lock:
            blob = self._objects.get(key)
            if blob is None:
                raise ObjectNotFound(key)
            return len(blob)

    def keys(self, prefix: str = "") -> List[str]:
        with self._lock:
            return sorted(k for k in self._objects if k.startswith(prefix))

    def delete(self, key: str) -> None:
        with self._lock:
            self._objects.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._objects)
