"""HTTP protocol shape: clients against a live in-process server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from evoloop.backends import (
    ContentCache,
    EndpointConfig,
    HttpTransport,
    ScoreClient,
    TranslateClient,
    TtsClient,
)
from evoloop.errors import (
    BackendUnavailable,
    PermanentBackendError,
    SynthesisRejected,
)


class ProtocolHandler(BaseHTTPRequestHandler):
    server_version = "stub"

    def log_message(self, *args):
        pass

    def _read(self):
        length = int(self.headers["Content-Length"])
        return json.loads(self.rfile.read(length))

    def _reply(self, status, obj):
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        state = self.server.state
        state["requests"].append(
            (self.path, self._read(), self.headers.get("Authorization"))
        )
        path, payload, _ = state["requests"][-1]
        if state["fail_next"] > 0:
            state["fail_next"] -= 1
            self._reply(state["fail_status"], {"error": "overloaded", "detail": "try later"})
            return
        if path == "/v1/tts":
            if payload["voice_id"] == "bad":
                self._reply(400, {"error": "unknown-voice", "detail": "bad"})
                return
            self._reply(200, {
                "uri": "audio/served.wav",
                "duration_s": len(payload["text"]) / 15.0,
                "sample_rate_hz": 16000,
            })
        elif path == "/v1/translate":
            self._reply(200, {"text": payload["text"].upper()})
        elif path == "/v1/score":
            self._reply(200, {"score": 0.42})
        else:
            self._reply(404, {"error": "no-route", "detail": path})


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), ProtocolHandler)
    httpd.state = {"requests": [], "fail_next": 0, "fail_status": 503}
    # a short poll keeps shutdown() in teardown from waiting 0.5 s per test
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()


def base_url(httpd):
    host, port = httpd.server_address
    return f"http://{host}:{port}"


def no_sleep(_s):
    pass


class TestWireShapes:
    def test_tts_request_and_response(self, server, tmp_path):
        transport = HttpTransport(base_url(server), timeout_s=5)
        client = TtsClient(transport, ContentCache(tmp_path / "c"), sleep=no_sleep)
        audio = client.synthesize("hello wire", "v7", target_duration_s=1.5)
        path, payload, _ = server.state["requests"][0]
        assert path == "/v1/tts"
        assert payload == {"text": "hello wire", "voice_id": "v7",
                           "target_duration_s": 1.5}
        assert audio.uri == "audio/served.wav"
        assert audio.sample_rate_hz == 16000

    def test_translate_request_carries_decode_and_direction(self, server, tmp_path):
        transport = HttpTransport(base_url(server), timeout_s=5)
        client = TranslateClient(transport, ContentCache(tmp_path / "c"), sleep=no_sleep)
        hyp = client.translate("mt", "guten tag", None, ("deu", "eng"))
        path, payload, _ = server.state["requests"][0]
        assert path == "/v1/translate"
        assert payload == {
            "mode": "mt", "text": "guten tag",
            "src_lang": "deu", "tgt_lang": "eng",
            "beam": 1, "temperature": 0.0,
        }
        assert hyp.text == "GUTEN TAG"

    def test_smt_translate_includes_audio_uri(self, server, tmp_path):
        from evoloop.corpus import AudioOrigin, AudioRef
        transport = HttpTransport(base_url(server), timeout_s=5)
        client = TranslateClient(transport, ContentCache(tmp_path / "c"), sleep=no_sleep)
        audio = AudioRef("audio/clip.wav", 2.0, 16000, AudioOrigin.SYNTHETIC, "v1")
        client.translate("smt", "guten tag", audio, ("deu", "eng"))
        _, payload, _ = server.state["requests"][0]
        assert payload["audio_uri"] == "audio/clip.wav"
        assert payload["mode"] == "smt"

    def test_score_round_trip(self, server, tmp_path):
        transport = HttpTransport(base_url(server), timeout_s=5)
        client = ScoreClient(transport, ContentCache(tmp_path / "c"), sleep=no_sleep)
        value = client.score("src", "hyp", "ref")
        path, payload, _ = server.state["requests"][0]
        assert path == "/v1/score"
        assert payload == {"source": "src", "hypothesis": "hyp", "reference": "ref"}
        assert value == 0.42

    def test_bearer_token_passthrough(self, server, tmp_path):
        transport = HttpTransport(base_url(server), timeout_s=5, token="sesame")
        client = ScoreClient(transport, ContentCache(tmp_path / "c"), sleep=no_sleep)
        client.score("s", "h", "r")
        _, _, auth = server.state["requests"][0]
        assert auth == "Bearer sesame"


class TestWireErrors:
    def test_400_maps_to_rejection_with_detail(self, server, tmp_path):
        transport = HttpTransport(base_url(server), timeout_s=5)
        client = TtsClient(transport, ContentCache(tmp_path / "c"), sleep=no_sleep)
        with pytest.raises(SynthesisRejected):
            client.synthesize("text", "bad")

    def test_5xx_retried_then_succeeds(self, server, tmp_path):
        server.state["fail_next"] = 2
        transport = HttpTransport(base_url(server), timeout_s=5)
        config = EndpointConfig(max_attempts=3, backoff_base_ms=1)
        client = ScoreClient(transport, ContentCache(tmp_path / "c"),
                             config=config, sleep=no_sleep)
        assert client.score("s", "h", "r") == 0.42
        assert len(server.state["requests"]) == 3

    def test_5xx_exhaustion_raises_unavailable(self, server, tmp_path):
        server.state["fail_next"] = 99
        transport = HttpTransport(base_url(server), timeout_s=5)
        config = EndpointConfig(max_attempts=2, backoff_base_ms=1)
        client = ScoreClient(transport, ContentCache(tmp_path / "c"),
                             config=config, sleep=no_sleep)
        with pytest.raises(BackendUnavailable) as exc:
            client.score("s", "h", "r")
        assert exc.value.attempts == 2

    @pytest.mark.parametrize("status", [408, 429])
    def test_throttled_reply_is_retried(self, server, tmp_path, status):
        server.state.update(fail_next=1, fail_status=status)
        slept = []
        client = ScoreClient(HttpTransport(base_url(server), timeout_s=5),
                             ContentCache(tmp_path / "c"), sleep=slept.append)
        assert client.score("s", "h", "r") == 0.42
        assert len(server.state["requests"]) == 2
        assert len(slept) == 1

    def test_other_4xx_is_not_retried(self, server, tmp_path):
        server.state.update(fail_next=1, fail_status=400)
        slept = []
        client = ScoreClient(HttpTransport(base_url(server), timeout_s=5),
                             ContentCache(tmp_path / "c"), sleep=slept.append)
        with pytest.raises(PermanentBackendError) as exc:
            client.score("s", "h", "r")
        assert exc.value.status == 400
        assert len(server.state["requests"]) == 1
        assert slept == []

    def test_unknown_route_is_permanent_error(self, server):
        transport = HttpTransport(base_url(server), timeout_s=5)
        with pytest.raises(PermanentBackendError) as exc:
            transport.post("/v1/nope", {})
        assert exc.value.status == 404
        assert exc.value.error == "no-route"

    def test_connection_refused_becomes_unavailable_after_retries(self, tmp_path):
        transport = HttpTransport("http://127.0.0.1:9", timeout_s=0.2)
        config = EndpointConfig(max_attempts=2, backoff_base_ms=1)
        client = ScoreClient(transport, ContentCache(tmp_path / "c"),
                             config=config, sleep=no_sleep)
        with pytest.raises(BackendUnavailable):
            client.score("s", "h", "r")
