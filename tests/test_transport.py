"""HttpTransport connection handling against a live keep-alive server."""

import json
import socket
import socketserver
import ssl
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from evoloop.backends import HttpTransport
from evoloop.backends.batch import run_batch, with_retry
from evoloop.errors import (
    BackendUnavailable,
    PermanentBackendError,
    TransientBackendError,
)
from evoloop.evolution import ModelVersion
from evoloop.mockstack import wire_stack


class KeepAliveHandler(BaseHTTPRequestHandler):
    """Echoes each payload back as {"echo": payload}, unless a canned reply
    (or "drop") is queued; records path, payload, Authorization and client
    port."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # the body must not wait for a delayed ACK

    def log_message(self, *args):
        pass

    def do_POST(self):
        state = self.server.state
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with state["lock"]:
            state["requests"].append({
                "path": self.path,
                "payload": payload,
                "auth": self.headers.get("Authorization"),
                "port": self.client_address[1],
            })
            canned = state["canned"].pop(0) if state["canned"] else None
        if canned == "drop":  # close without a reply
            self.close_connection = True
            return
        status, body = canned or (200, json.dumps({"echo": payload}).encode())
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        if state["close_after_reply"]:
            # close without a "Connection: close" header, as a server whose
            # idle timeout expires does: the client still holds it as alive
            self.close_connection = True


class RecordingServer(ThreadingHTTPServer):
    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.state["closed"].set()


@pytest.fixture
def server():
    httpd = RecordingServer(("127.0.0.1", 0), KeepAliveHandler)
    httpd.state = {"requests": [], "canned": [], "close_after_reply": False,
                   "closed": threading.Event(), "lock": threading.Lock()}
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def transports():
    """Builds transports and closes their idle connections at teardown."""
    made = []

    def make(url, **kwargs):
        made.append(HttpTransport(url, timeout_s=5, **kwargs))
        return made[-1]

    yield make
    for transport in made:
        transport.close()


def base_url(httpd):
    host, port = httpd.server_address
    return f"http://{host}:{port}"


def ports(httpd):
    return {r["port"] for r in httpd.state["requests"]}


def no_sleep(_s):
    pass


def test_sequential_posts_share_one_connection(server, transports):
    transport = transports(base_url(server))
    for i in range(20):
        assert transport.score({"i": i}) == {"echo": {"i": i}}
    assert len(server.state["requests"]) == 20
    assert len(ports(server)) == 1


def test_connections_outlive_the_batch_pool(server, transports):
    transport = transports(base_url(server))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more hand-offs between the 4 workers
    try:
        for start in (0, 20):
            tasks = [lambda i=i: transport.translate({"i": i})
                     for i in range(start, start + 20)]
            results = run_batch(tasks, max_in_flight=4)
            assert [r.value for r in results] == [
                {"echo": {"i": i}} for i in range(start, start + 20)
            ]
    finally:
        sys.setswitchinterval(interval)
    assert len(server.state["requests"]) == 40
    assert len(ports(server)) <= 4


def test_idle_connection_closed_by_server_is_replaced(server, transports):
    transport = transports(base_url(server))
    server.state["close_after_reply"] = True
    assert transport.score({"i": 1}) == {"echo": {"i": 1}}
    assert server.state["closed"].wait(timeout=5)
    server.state["close_after_reply"] = False
    assert transport.score({"i": 2}) == {"echo": {"i": 2}}
    payloads = [r["payload"] for r in server.state["requests"]]
    assert payloads == [{"i": 1}, {"i": 2}]
    assert len(ports(server)) == 2


def test_fresh_connection_closed_without_reply_is_not_resent(server, transports):
    server.state["canned"] = ["drop"]
    transport = transports(base_url(server))
    with pytest.raises(TransientBackendError):
        transport.score({"i": 0})
    assert len(server.state["requests"]) == 1


def test_refused_connection_is_one_connect_per_attempt(monkeypatch, transports):
    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    connects = []
    real = socket.create_connection

    def counting(address, *args, **kwargs):
        connects.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    transport = transports(f"http://127.0.0.1:{port}")
    with pytest.raises(BackendUnavailable) as exc:
        with_retry(lambda: transport.score({}), "score", max_attempts=2,
                   backoff_base_ms=1, sleep=no_sleep)
    assert exc.value.attempts == 2
    assert isinstance(exc.value.__cause__, TransientBackendError)
    assert connects == [("127.0.0.1", port)] * 2


def test_base_url_path_prefix_is_kept(server, transports):
    transport = transports(base_url(server) + "/api/v2/")
    transport.score({"i": 0})
    assert server.state["requests"][0]["path"] == "/api/v2/v1/score"


def test_token_header_on_every_pooled_request(server, transports):
    transport = transports(base_url(server), token="sesame")
    run_batch([lambda i=i: transport.tts({"i": i}) for i in range(12)], max_in_flight=3)
    requests = server.state["requests"]
    assert len(requests) == 12
    assert len(ports(server)) < 12
    assert {r["auth"] for r in requests} == {"Bearer sesame"}


def test_nan_payload_refused_before_sending(server, transports):
    transport = transports(base_url(server))
    with pytest.raises(ValueError):
        transport.score({"score": float("nan")})
    assert server.state["requests"] == []
    assert transport.score({"i": 0}) == {"echo": {"i": 0}}


def test_non_object_5xx_body_is_retried(server, transports):
    server.state["canned"] = [(503, b'["overloaded"]')]
    transport = transports(base_url(server))
    value, attempts = with_retry(lambda: transport.score({"i": 0}), "score",
                                 max_attempts=2, backoff_base_ms=1, sleep=no_sleep)
    assert value == {"echo": {"i": 0}}
    assert attempts == 2


@pytest.mark.parametrize("body", [b'["no"]', b'"no"', b"null", b"not json"])
def test_non_object_4xx_body_is_permanent_without_detail(server, transports, body):
    server.state["canned"] = [(422, body)]
    transport = transports(base_url(server))
    with pytest.raises(PermanentBackendError) as exc:
        transport.score({})
    assert (exc.value.status, exc.value.error, exc.value.detail) == (422, "", "")


@pytest.mark.parametrize("body", [b"[0.5]", b"0.5", b"not json", b""])
def test_non_object_2xx_body_is_bad_json(server, transports, body):
    server.state["canned"] = [(200, body)]
    transport = transports(base_url(server))
    with pytest.raises(PermanentBackendError) as exc:
        transport.score({})
    assert (exc.value.status, exc.value.error) == (200, "bad-json")


def test_redirect_is_permanent(server, transports):
    server.state["canned"] = [(307, b"")]
    transport = transports(base_url(server))
    with pytest.raises(PermanentBackendError) as exc:
        transport.score({})
    assert exc.value.status == 307
    assert len(server.state["requests"]) == 1


def test_https_url_speaks_tls(server, transports):
    transport = transports(base_url(server).replace("http://", "https://"))
    with pytest.raises(TransientBackendError) as exc:
        transport.score({})  # a TLS handshake against a plain-HTTP server
    assert isinstance(exc.value.__cause__, ssl.SSLError)
    assert server.state["requests"] == []


@pytest.mark.parametrize("url", ["ftp://host/", "localhost:8000", "http:///v1"])
def test_base_url_must_be_http(url):
    with pytest.raises(ValueError, match="http"):
        HttpTransport(url)


def test_stack_exit_closes_transport_connections(server, transports, tmp_path):
    transport = transports(base_url(server))
    with wire_stack(str(tmp_path), ModelVersion(0), transport, transport, transport,
                    max_in_flight=1):
        assert transport.score({"i": 0}) == {"echo": {"i": 0}}
        assert not server.state["closed"].is_set()
    assert server.state["closed"].wait(timeout=5)


@pytest.mark.parametrize("url, token", [
    ("http://127.0.0.1:8000/api\r\nX-Injected: 1", None),
    ("http://127.0.0.1:8000/a b", None),
    ("http://127.0.0.1:8000/api\x00", None),
    ("http://127.0.0.1\n:8000/", None),
    ("http://127.0.0.1\x01:8000/", None),
    ("http://127.0.0.1:8000", "sesame\r\nX-Injected: 1"),
    ("http://127.0.0.1:8000", "sesame\n"),
    ("http://127.0.0.1:8000", "sesame\x7f"),
], ids=["path-crlf", "path-space", "path-nul", "host-lf", "host-ctl",
        "token-crlf", "token-lf", "token-del"])
def test_header_injection_refused_at_construction(url, token):
    with pytest.raises(ValueError):
        HttpTransport(url, token=token)


# --- framing, against canned raw replies ---------------------------------------

OK = b'HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{"ok": 1}'


class RawReplyHandler(socketserver.StreamRequestHandler):
    """Answers each request with the next queued (raw reply, close after it)
    or OK; records each request line and its header fields in order, counts
    connections and sets `closed` once the client ends one."""

    def handle(self):
        state = self.server.state
        with state["lock"]:
            state["connections"] += 1
        try:
            while line := self.rfile.readline():
                fields = []
                while (field := self.rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = field.decode("latin-1").partition(":")
                    fields.append((name, value.strip()))
                payload = json.loads(self.rfile.read(int(dict(fields)["Content-Length"])))
                with state["lock"]:
                    state["requests"].append(
                        {"line": line, "fields": fields, "payload": payload})
                    reply, close = state["replies"].pop(0) if state["replies"] else (OK, False)
                self.wfile.write(reply)
                if close:
                    return
        except ConnectionError:  # a client that closes with a reply unread resets
            pass
        state["closed"].set()


class RawServer(socketserver.ThreadingTCPServer):
    daemon_threads = True


class RawServer6(RawServer):
    address_family = socket.AF_INET6


@pytest.fixture
def raw_server(request):
    host = getattr(request, "param", "127.0.0.1")
    try:
        srv = (RawServer6 if ":" in host else RawServer)((host, 0), RawReplyHandler)
    except OSError:
        pytest.skip(f"cannot listen on {host}")
    srv.state = {"requests": [], "replies": [], "connections": 0,
                 "closed": threading.Event(), "lock": threading.Lock()}
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def raw_netloc(srv):
    host, port = srv.server_address[:2]
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


FIELDS_99 = b"".join(b"X-%d: 1\r\n" % i for i in range(99))


@pytest.mark.parametrize("reply, close, reused", [
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 99\r\n\r\n"
     b'5\r\n{"ok"\r\n4;x=y\r\n: 1}\r\n0\r\n\r\n', False, True),
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
     b'9\r\n{"ok": 1}\r\n0\r\nX-Checksum: 1\r\n\r\n', False, True),
    (b'HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 9\r\n\r\n{"ok": 1}',
     False, False),
    (b'HTTP/1.0 200 OK\r\nContent-Length: 9\r\n\r\n{"ok": 1}', False, False),
    (b'HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 9\r\n\r\n{"ok": 1}',
     False, True),
    (b'HTTP/1.0 200 OK\r\n\r\n{"ok": 1}', True, False),
    (b"HTTP/1.1 100 Continue\r\n\r\n" + OK, False, True),
    (b"HTTP/1.1 200 OK\r\n" + FIELDS_99 + b'Content-Length: 9\r\n\r\n{"ok": 1}',
     False, True),
], ids=["chunked", "chunked-trailer", "connection-close", "http10", "http10-keep-alive",
        "http10-close-delimited", "100-continue", "100-fields"])
def test_reply_framing(raw_server, transports, reply, close, reused):
    raw_server.state["replies"] = [(reply, close)]
    transport = transports(f"http://{raw_netloc(raw_server)}")
    assert transport.score({"i": 0}) == {"ok": 1}
    assert transport.score({"i": 1}) == {"ok": 1}  # the first body was read exactly
    assert [r["payload"] for r in raw_server.state["requests"]] == [{"i": 0}, {"i": 1}]
    assert raw_server.state["connections"] == (1 if reused else 2)


@pytest.mark.parametrize("status", [204, 304])
def test_bodiless_status_returns_without_waiting_for_close(raw_server, transports, status):
    raw_server.state["replies"] = [(b"HTTP/1.1 %d X\r\n\r\n" % status, False)]
    transport = transports(f"http://{raw_netloc(raw_server)}")
    # reading to close would end in the 5 s timeout, a transient error
    with pytest.raises(PermanentBackendError) as exc:
        transport.score({})
    assert exc.value.status == status
    assert transport.score({}) == {"ok": 1}
    assert raw_server.state["connections"] == 1


@pytest.mark.parametrize("reply, close", [
    (b'SPDY/3 200 OK\r\nContent-Length: 9\r\n\r\n{"ok": 1}', False),
    (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b'\r\nContent-Length: 9\r\n\r\n{"ok": 1}',
     False),
    (b"HTTP/1.1 200 OK\r\nX-0: 1\r\n" + FIELDS_99 + b'Content-Length: 9\r\n\r\n{"ok": 1}',
     False),
    (b'HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{"ok"', True),
], ids=["bad-status-line", "long-header-line", "101-fields", "truncated-body"])
def test_malformed_reply_is_transient_and_not_resent(raw_server, transports, reply, close):
    raw_server.state["replies"] = [(reply, close)]
    transport = transports(f"http://{raw_netloc(raw_server)}")
    with pytest.raises(TransientBackendError):
        transport.score({"i": 0})
    assert len(raw_server.state["requests"]) == 1
    if not close:
        assert raw_server.state["closed"].wait(timeout=5)
    assert transport.score({"i": 1}) == {"ok": 1}  # on a new connection
    assert raw_server.state["connections"] == 2


@pytest.mark.parametrize("raw_server", ["127.0.0.1", "::1"], indirect=True)
@pytest.mark.parametrize("token", [None, "sesame"])
def test_request_line_and_header_fields(raw_server, transports, token):
    netloc = raw_netloc(raw_server)
    transport = transports(f"http://{netloc}/api", token=token)
    transport.score({"i": 0})
    request, = raw_server.state["requests"]
    assert request["line"] == b"POST /api/v1/score HTTP/1.1\r\n"
    expected = [("Host", netloc), ("Accept-Encoding", "identity"),
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(b'{"i": 0}')))]
    if token:
        expected.append(("Authorization", f"Bearer {token}"))
    assert sorted(request["fields"]) == sorted(expected)
