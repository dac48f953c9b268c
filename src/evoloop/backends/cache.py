"""Content-addressed response cache.

Layout: <root>/<endpoint>/<namespace>/<hash>.json, where hash is the
SHA-256 of the canonical request payload. The namespace isolates responses
produced by different model versions, so a post-update run never reads
answers the previous weights gave, while byte-identical requests within one
version always hit. Entries sit directly in the namespace directory; the
file system indexes large directories itself.

Writes go through write_atomic (a temp file in the same directory, then a
rename), so readers only ever see complete entries and concurrent
writers of the same key are harmless (last rename wins with identical
content).
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

from ..atomic import write_atomic


def canonical_payload(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def payload_hash(payload: dict) -> str:
    return hashlib.sha256(canonical_payload(payload).encode("utf-8")).hexdigest()


class CacheStats:
    __slots__ = ("hits", "misses", "writes", "_lock")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._lock = threading.Lock()

    def hit(self):
        with self._lock:
            self.hits += 1

    def miss(self):
        with self._lock:
            self.misses += 1

    def wrote(self):
        with self._lock:
            self.writes += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "writes": self.writes}


class ContentCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.stats = CacheStats()

    def _path(self, endpoint: str, namespace: str, key: str) -> Path:
        return self.root / endpoint / namespace / f"{key}.json"

    def get(self, endpoint: str, namespace: str, payload: dict) -> dict | None:
        path = self._path(endpoint, namespace, payload_hash(payload))
        try:
            with open(path, encoding="utf-8") as fh:
                response = json.load(fh)
        except FileNotFoundError:
            self.stats.miss()
            return None
        except json.JSONDecodeError:
            # torn entry from a crashed writer predating the rename protocol;
            # treat as absent, the put() below repairs it
            self.stats.miss()
            return None
        self.stats.hit()
        return response

    def put(self, endpoint: str, namespace: str, payload: dict, response: dict) -> None:
        path = self._path(endpoint, namespace, payload_hash(payload))
        data = json.dumps(response, ensure_ascii=False, sort_keys=True)
        write_atomic(path, data.encode("utf-8"))
        self.stats.wrote()

