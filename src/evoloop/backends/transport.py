"""HTTP transport for the model-service protocol, on the standard library.

All three services speak the same envelope: POST a JSON object, receive a
JSON object; non-2xx responses carry {error, detail}. This module performs
exactly one attempt per call; retry policy lives in batch.with_retry.

Connections are kept alive and reused. Each transport keeps a free list of
idle connections: a post takes one (or opens one when the list is empty)
and puts it back once the response is read, unless the server closes it.
The list outlives the thread pools that batches build, so at most the
peak number of concurrent posts stay open across phases and rounds.
`list.pop` and `list.append` are atomic, so threads share it without a lock.

A reused connection may have been closed by the server while it sat idle.
Such a post is sent once more on a fresh connection; requests are
content-addressed and idempotent, so that is safe. A failure on a fresh
connection is never re-sent.

Unlike `requests`, this transport reads no proxy environment variables,
verifies TLS against the system CA store (`ssl.create_default_context`),
follows no redirects (a 3xx is a permanent error) and asks for no
compression.
"""

from __future__ import annotations

import http.client
import json
import ssl
from urllib.parse import urlsplit

from ..errors import PermanentBackendError, TransientBackendError

TTS_PATH = "/v1/tts"
TRANSLATE_PATH = "/v1/translate"
SCORE_PATH = "/v1/score"

# what a reused connection raises when the server closed it while idle
_STALE = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


class HttpTransport:
    def __init__(self, base_url: str, timeout_s: float = 30.0, token: str | None = None):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"base_url must be an http(s) URL, got {base_url!r}")
        self._host = parts.hostname
        self._port = parts.port
        self._prefix = parts.path
        self._tls = ssl.create_default_context() if parts.scheme == "https" else None
        self._headers = {"Content-Type": "application/json"}
        if token:
            self._headers["Authorization"] = f"Bearer {token}"
        self._idle: list[http.client.HTTPConnection] = []

    def _connect(self) -> http.client.HTTPConnection:
        if self._tls is not None:
            return http.client.HTTPSConnection(
                self._host, self._port, timeout=self.timeout_s, context=self._tls
            )
        return http.client.HTTPConnection(self._host, self._port, timeout=self.timeout_s)

    def _exchange(self, conn: http.client.HTTPConnection, path: str, body: bytes):
        conn.request("POST", self._prefix + path, body, self._headers)
        resp = conn.getresponse()
        return resp.status, resp.read(), resp.will_close

    def post(self, path: str, payload: dict) -> dict:
        url = self.base_url + path
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = self._connect(), False
        try:
            try:
                status, data, will_close = self._exchange(conn, path, body)
            except _STALE:
                if not reused:
                    raise
                conn.close()
                conn = self._connect()
                status, data, will_close = self._exchange(conn, path, body)
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransientBackendError(f"{url}: {exc}") from exc
        if will_close:
            conn.close()
        else:
            self._idle.append(conn)

        try:
            obj = json.loads(data)
        except ValueError as exc:
            obj, problem = None, str(exc)
        else:
            problem = f"expected a JSON object, got {type(obj).__name__}"
        if 200 <= status < 300:
            if isinstance(obj, dict):
                return obj
            raise PermanentBackendError(status, "bad-json", problem)
        if not isinstance(obj, dict):
            obj = {}  # an error body without {error, detail}
        error = obj.get("error", "")
        detail = obj.get("detail", "")
        if status >= 500:
            raise TransientBackendError(f"{url}: HTTP {status} {error} {detail}".rstrip())
        raise PermanentBackendError(status, error, detail)

    def close(self) -> None:
        """Close every idle connection; a later post opens a new one."""
        while self._idle:
            self._idle.pop().close()

    # endpoint-shaped helpers so transports and mocks expose the same surface
    def tts(self, payload: dict) -> dict:
        return self.post(TTS_PATH, payload)

    def translate(self, payload: dict) -> dict:
        return self.post(TRANSLATE_PATH, payload)

    def score(self, payload: dict) -> dict:
        return self.post(SCORE_PATH, payload)
