"""Content-addressed response cache in one sqlite3 file.

Layout: <root>/responses.db, one WITHOUT ROWID table `entries` whose key
is a 32-byte BLOB, entry_key(endpoint, namespace, payload): the SHA-256 of
the endpoint, the namespace and the canonical request payload, joined by
NUL. Endpoints and namespaces hold no NUL and canonical JSON escapes every
control character, so distinct triples never join to the same text. Each
row holds canonical_payload(response), so keys and rows share one JSON
encoder. The namespace isolates responses produced by different model
versions, so a post-update run never reads answers the previous weights
gave, while byte-identical requests within one version always hit. A
store that still holds the older `responses` table, keyed by three text
columns, has it dropped when it opens; those requests are sent once more.

The store runs in WAL mode with synchronous=NORMAL and commits every put
on its own, so a killed process keeps every entry it put before, and
readers never see a torn entry. Concurrent writers of the same key are
harmless (INSERT OR REPLACE of identical text). One connection, opened on
the first get or put, is shared by all threads behind a lock. close()
checkpoints the WAL and removes its side files; a cache dropped without
close() does the same when it is garbage-collected.
"""

from __future__ import annotations

import hashlib
import json
import threading
import weakref
from pathlib import Path

DB_NAME = "responses.db"
_SCHEMA = """CREATE TABLE IF NOT EXISTS entries (
    key BLOB PRIMARY KEY,
    response TEXT NOT NULL
) WITHOUT ROWID"""


def canonical_payload(payload: object) -> str:
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def entry_key(endpoint: str, namespace: str, payload: dict) -> bytes:
    """The 32-byte key of one request to one endpoint in one namespace."""
    text = f"{endpoint}\0{namespace}\0{canonical_payload(payload)}"
    return hashlib.sha256(text.encode("utf-8")).digest()


class ContentCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._db = None
        self._close_db = None

    def _connect(self):
        """The shared sqlite3 connection, opened on first use; caller holds _lock."""
        if self._db is None:
            import sqlite3

            self.root.mkdir(parents=True, exist_ok=True)
            db = sqlite3.connect(self.root / DB_NAME, isolation_level=None,
                                 check_same_thread=False)
            db.execute("PRAGMA journal_mode=WAL")
            db.execute("PRAGMA synchronous=NORMAL")
            db.execute("DROP TABLE IF EXISTS responses")  # the older layout
            db.execute(_SCHEMA)
            # a Connection sits in a reference cycle, so only the cyclic GC
            # would free it; closing when the cache is dropped removes the
            # -wal and -shm files right away
            self._close_db = weakref.finalize(self, db.close)
            self._db = db
        return self._db

    def close(self) -> None:
        """Checkpoint and close the store; a later get or put reopens it."""
        with self._lock:
            if self._db is not None:
                self._close_db()
                self._db = None

    def get(self, key: bytes) -> dict | None:
        """The response stored under key (an entry_key), or None."""
        with self._lock:
            row = self._connect().execute(
                "SELECT response FROM entries WHERE key = ?", (key,)).fetchone()
        return None if row is None else json.loads(row[0])

    def put(self, key: bytes, response: dict) -> None:
        """Store response under key (an entry_key)."""
        data = canonical_payload(response)
        with self._lock:
            self._connect().execute(
                "INSERT OR REPLACE INTO entries VALUES (?, ?)", (key, data))
