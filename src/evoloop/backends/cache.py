"""Content-addressed response cache in one append-only log.

Layout: <root>/responses.log, a run of records. Each record is the
entry's 32-byte key, entry_key(endpoint, namespace, payload): the SHA-256
of the endpoint, the namespace and the canonical request payload, joined
by NUL; then the length of the response text as a 4-byte little-endian
unsigned integer; then canonical_payload(response) in UTF-8, so keys and
records share one JSON encoder. Endpoints and namespaces hold no NUL and
canonical JSON escapes every control character, so distinct triples never
join to the same text. The namespace isolates responses produced by
different model versions, so a post-update run never reads answers the
previous weights gave, while byte-identical requests within one version
always hit.

The first get or put reads the whole log into a dict from key to response
bytes, and cuts off a last record that runs past the end of the file,
which is what a process killed inside a put leaves. A get is a lookup in
that dict. A put appends its whole record with one write to a descriptor
opened with O_APPEND before it returns, so a killed process keeps every
entry it put; a key the dict already holds is not written again. Another
process that shares the log appends whole records beside this one's, and
each sees the other's entries from its next open. Older layouts (the
sqlite3 `responses.db`, one file per entry) are not read.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import weakref
from pathlib import Path

from ..atomic import canonical_payload

LOG_NAME = "responses.log"
# a record's header: its key and the byte length of the response text after it
_HEADER = struct.Struct("<32sI")


def entry_key(endpoint: str, namespace: str, payload: dict) -> bytes:
    """The 32-byte key of one request to one endpoint in one namespace."""
    text = f"{endpoint}\0{namespace}\0{canonical_payload(payload)}"
    return hashlib.sha256(text.encode("utf-8")).digest()


def _read_log(fd: int) -> dict[bytes, bytes]:
    """The log's entries; a last record that runs past the end of the file,
    which is what a process killed inside a put leaves, is cut off."""
    with open(fd, "rb", closefd=False) as log:
        data = log.read()
    entries = {}
    end = 0
    while end + _HEADER.size <= len(data):
        key, length = _HEADER.unpack_from(data, end)
        start = end + _HEADER.size
        if start + length > len(data):
            break
        entries[key] = data[start:start + length]
        end = start + length
    if end < len(data):
        os.ftruncate(fd, end)
    return entries


class ContentCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._entries = None  # key -> response bytes, once the log is read
        self._fd = None
        self._close_fd = None

    def _open(self) -> dict[bytes, bytes]:
        """The log's entries, read on first use; caller holds _lock."""
        if self._entries is None:
            self.root.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.root / LOG_NAME, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            # the descriptor is the cache's own: close it when the cache is dropped
            self._close_fd = weakref.finalize(self, os.close, fd)
            self._fd = fd
            self._entries = _read_log(fd)
        return self._entries

    def close(self) -> None:
        """Close the log and drop its entries; a later get or put reopens it."""
        with self._lock:
            if self._entries is not None:
                self._close_fd()
                self._entries = self._fd = None

    def get(self, key: bytes) -> dict | None:
        """The response stored under key (an entry_key), or None."""
        entries = self._entries
        if entries is None:
            with self._lock:
                entries = self._open()
        data = entries.get(key)
        return None if data is None else json.loads(data)

    def put(self, key: bytes, response: dict) -> None:
        """Store response under key (an entry_key) unless the key is held."""
        data = canonical_payload(response).encode("utf-8")
        with self._lock:
            entries = self._open()
            if key in entries:
                return
            record = _HEADER.pack(key, len(data)) + data
            written = os.write(self._fd, record)
            if written != len(record):
                # a full disk or file-size limit; cut the partial record so
                # that later appends stay framed
                os.ftruncate(self._fd, os.lseek(self._fd, 0, os.SEEK_CUR) - written)
                raise OSError(f"{self.root / LOG_NAME}: wrote {written} of {len(record)} bytes")
            entries[key] = data
