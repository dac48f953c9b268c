"""HttpTransport connection handling against a live keep-alive server."""

import json
import socket
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
