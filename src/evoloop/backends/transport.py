"""HTTP transport for the model-service protocol, on plain sockets.

All three services speak the same envelope: POST a JSON object, receive a
JSON object; non-2xx responses carry {error, detail}. This module performs
exactly one attempt per call; retry policy lives in batch.with_retry.

The transport frames HTTP/1.1 itself, and only the subset the protocol
needs. A request is one `sendall` of a POST with `Host`,
`Accept-Encoding: identity`, `Content-Type`, `Content-Length` and, when a
token is set, `Authorization`. A response's status line and header are
read with at most 65,536 bytes a line and 100 header fields; interim 1xx
replies are skipped. Its body is chunked (which wins over
`Content-Length`), `Content-Length` bytes, empty for 204 and 304, or
everything up to close. A status line, header block or body that breaks
these rules, or ends early, is a malformed reply.

Connections are kept alive and reused. Each transport keeps a free list of
idle connections: a post takes one (or opens one when the list is empty)
and puts it back once the response is read, unless the server sent
`Connection: close`, answered HTTP/1.0 without keep-alive, or delimited
the body by closing. The list outlives the thread pools that batches
build, so at most the peak number of concurrent posts stay open across
phases and rounds. `list.pop` and `list.append` are atomic, so threads
share it without a lock.

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

import json
import re
import socket
from urllib.parse import urlsplit

from ..errors import PermanentBackendError, TransientBackendError

TTS_PATH = "/v1/tts"
TRANSLATE_PATH = "/v1/translate"
SCORE_PATH = "/v1/score"

_MAX_LINE = 65536  # http.client's limit on a status or header line
_MAX_HEADERS = 100  # header fields; http.client counts the blank line too
# characters that would split or end the request line or a header field
_URL_UNSAFE = re.compile(r"[\x00-\x20\x7f]")
_HEADER_UNSAFE = re.compile(r"[\x00-\x1f\x7f]")
# Request Timeout and Too Many Requests: the service may answer later
_RETRIED_4XX = frozenset({408, 429})


def _read_line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _read_fields(reader) -> dict[bytes, bytes]:
    """Read header (or trailer) fields up to the blank line; names lowercased."""
    fields = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise ValueError("connection closed inside the reply header")
        name, _, value = line.partition(b":")
        fields[name.strip().lower()] = value.strip()
    raise ValueError(f"more than {_MAX_HEADERS} header fields")


def _read_chunked(reader) -> bytes:
    chunks = []
    while True:
        size = int(_read_line(reader).partition(b";")[0], 16)
        if size < 0:
            raise ValueError(f"negative chunk size {size}")
        if size == 0:
            _read_fields(reader)  # trailer fields are read and dropped
            return b"".join(chunks)
        chunk = reader.read(size)
        if len(chunk) < size or _read_line(reader) not in (b"\r\n", b"\n"):
            raise ValueError("truncated chunk")
        chunks.append(chunk)


class _Connection:
    """One socket and its buffered reader, kept for the connection's life."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def exchange(self, request: bytes) -> tuple[int, bytes, bool]:
        """Send one request; return the status, the body and whether the
        connection may carry another request."""
        self.sock.sendall(request)
        reader = self.reader
        while True:
            line = _read_line(reader)
            if not line:
                raise ConnectionError("server closed the connection without a reply")
            parts = line.split(None, 2)
            if (len(parts) < 2 or not parts[0].startswith(b"HTTP/1.")
                    or len(parts[1]) != 3 or not parts[1].isdigit()
                    or (status := int(parts[1])) < 100):
                raise ValueError(f"bad status line {line[:80]!r}")
            fields = _read_fields(reader)
            if status >= 200:
                break
        connection = fields.get(b"connection", b"").lower()
        if parts[0] == b"HTTP/1.0":
            keep = b"keep-alive" in connection
        else:
            keep = b"close" not in connection
        if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
            body = _read_chunked(reader)
        elif status in (204, 304):
            body = b""
        elif b"content-length" in fields:
            length = int(fields[b"content-length"])
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
            body = reader.read(length)
            if len(body) < length:
                raise ValueError(f"truncated body: {len(body)} of {length} bytes")
        else:
            body, keep = reader.read(), False
        return status, body, keep


class HttpTransport:
    def __init__(self, base_url: str, timeout_s: float = 30.0, token: str | None = None):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"base_url must be an http(s) URL, got {base_url!r}")
        # urlsplit drops CR, LF and tab silently, so check the URL as given
        if _URL_UNSAFE.search(base_url):
            raise ValueError(f"base_url contains a space or control character: {base_url!r}")
        if token and _HEADER_UNSAFE.search(token):
            raise ValueError("token contains a control character")
        self._host = parts.hostname
        self._port = parts.port or (443 if parts.scheme == "https" else 80)
        self._tls = None
        if parts.scheme == "https":
            import ssl  # only https transports pay for loading ssl

            self._tls = ssl.create_default_context()
        self._target = parts.path.encode("ascii")
        head = (b"Host: " + parts.netloc.rpartition("@")[2].encode("idna")
                + b"\r\nAccept-Encoding: identity\r\nContent-Type: application/json\r\n")
        if token:
            head += b"Authorization: Bearer " + token.encode("latin-1") + b"\r\n"
        self._head = head
        self._idle: list[_Connection] = []

    def _connect(self) -> _Connection:
        sock = socket.create_connection((self._host, self._port), self.timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def post(self, path: str, payload: dict) -> dict:
        url = self.base_url + path
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        request = b"POST %s%s HTTP/1.1\r\n%sContent-Length: %d\r\n\r\n%s" % (
            self._target, path.encode("ascii"), self._head, len(body), body)
        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = None, False
        try:
            if conn is None:
                conn = self._connect()
            try:
                status, data, keep = conn.exchange(request)
            except ConnectionError:  # reset, broken pipe or closed unanswered
                if not reused:
                    raise
                conn.close()
                conn = self._connect()
                status, data, keep = conn.exchange(request)
        except (OSError, ValueError) as exc:  # ValueError: a malformed reply
            if conn is not None:
                conn.close()
            raise TransientBackendError(f"{url}: {exc}") from exc
        if keep:
            self._idle.append(conn)
        else:
            conn.close()

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
        if status >= 500 or status in _RETRIED_4XX:
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
