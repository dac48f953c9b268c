"""Stub model service for the loop-http workload, run in its own process.

    python3 perfbench/stub_service.py

Serves the three endpoints of the model-service protocol on 127.0.0.1 at
a free port, which it prints as the first line of standard output, until
its standard input closes. Each
request is held for a fixed 10 ms of service time and answered with the mock
semantics: the TTS descriptor (duration = characters / 15 unless a
target is given), a translator that drops the last token in text-only
mode and echoes in speech-guided mode, and a token-F1 scorer (the last
two are the benchmark's own, from checks.py).

Every response goes out in one write, with TCP_NODELAY set, so no request
stalls on a delayed ACK. GET /stats returns the request count, the summed
handling time and the peak number of requests in flight since the last
/stats call.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from checks import drop_last, token_f1

SAMPLE_RATE_HZ = 16000
CHARS_PER_SECOND = 15.0
SERVICE_S = 0.010  # fixed service time per request


def tts(payload: dict) -> dict:
    text = payload["text"]
    if not text:
        raise ValueError("empty text")
    target = payload.get("target_duration_s")
    key = hashlib.sha256(
        f"{text}\x00{payload['voice_id']}\x00{target}".encode()
    ).hexdigest()[:16]
    duration = float(target) if target is not None else len(text) / CHARS_PER_SECOND
    return {"uri": f"audio/{key}.wav", "duration_s": duration,
            "sample_rate_hz": SAMPLE_RATE_HZ}


def translate(payload: dict) -> dict:
    text = payload["text"]
    return {"text": drop_last(text) if payload["mode"] == "mt" else text}


def score(payload: dict) -> dict:
    return {"score": token_f1(payload["hypothesis"], payload["reference"])}


ROUTES = {"/v1/tts": tts, "/v1/translate": translate, "/v1/score": score}


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.busy_s = 0.0
        self.in_flight = 0
        self.peak = 0

    def enter(self):
        with self.lock:
            self.requests += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)

    def leave(self, seconds: float):
        with self.lock:
            self.in_flight -= 1
            self.busy_s += seconds

    def read(self) -> dict:
        with self.lock:
            out = {"requests": self.requests, "busy_s": self.busy_s,
                   "peak_in_flight": self.peak}
            self.peak = self.in_flight
            return out


def make_handler(counters: Counters):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - base signature
            pass

        def reply(self, status: int, obj: dict) -> None:
            body = json.dumps(obj).encode("utf-8")
            head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
            self.wfile.write(head + body)

        def do_GET(self):
            if self.path == "/stats":
                self.reply(200, counters.read())
            else:
                self.reply(404, {"error": "not-found", "detail": self.path})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            route = ROUTES.get(self.path)
            if route is None:
                self.reply(404, {"error": "not-found", "detail": self.path})
                return
            counters.enter()
            t0 = time.perf_counter()
            try:
                status, obj = 200, route(json.loads(body))
            except (KeyError, ValueError) as exc:
                status, obj = 400, {"error": "bad-request", "detail": str(exc)}
            time.sleep(max(0.0, SERVICE_S - (time.perf_counter() - t0)))
            # leave before replying: once the client has the answer it may
            # send its next request, which must not count as a second one
            counters.leave(time.perf_counter() - t0)
            self.reply(status, obj)

    return Handler


def main() -> int:
    counters = Counters()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(counters))
    server.daemon_threads = True
    serving = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    serving.start()
    print(server.server_address[1], flush=True)
    try:
        # serve until standard input closes, which it does when the
        # benchmark exits, however it exits
        sys.stdin.read()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        serving.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
