"""In-process mock backends.

Each mock accepts and returns the same JSON dicts as the wire protocol, so
clients cannot tell them from an HTTP transport. All are pure functions of
(request, construction arguments); nothing reads clocks or global RNG state,
which is what makes whole-pipeline runs reproducible byte for byte.

Documented behaviors relied on by fixtures:
- MockTts duration: target_duration_s when the request carries one, else
  len(text)/15.0 seconds (a 15-chars-per-second speaking rate).
- ContrastTranslator drops the final whitespace-separated token in MT mode
  and echoes in SMT mode (speech keeps the tail intact).
- MockScorer is the harmonic F1 over whitespace token multisets of
  hypothesis vs reference; the source string is ignored.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from typing import Callable, Mapping

from ..errors import PermanentBackendError

CHARS_PER_SECOND = 15.0
MISS_PENALTY = 0.05  # ScheduledScorer: a miss scores this far below the schedule
SAMPLE_RATE_HZ = 16000


class CallCounter:
    """Thread-safe request counter shared by the mocks."""

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1


class MockTts:
    """Names a 16 kHz clip by a hash of its request; writes no file.

    Nothing downstream decodes audio (AudioRef only carries the metadata),
    so the uri is a name, not a path that exists.
    """

    def __init__(self, known_voices: frozenset[str] | None = None):
        self.known_voices = known_voices
        self.calls = CallCounter()

    def tts(self, payload: dict) -> dict:
        self.calls.bump()
        text = payload["text"]
        voice_id = payload["voice_id"]
        if not text:
            raise PermanentBackendError(400, "empty-text", "nothing to synthesize")
        if self.known_voices is not None and voice_id not in self.known_voices:
            raise PermanentBackendError(400, "unknown-voice", voice_id)
        if payload.get("target_duration_s") is not None:
            duration_s = float(payload["target_duration_s"])
        else:
            duration_s = len(text) / CHARS_PER_SECOND
        key = hashlib.sha256(
            f"{text}\x00{voice_id}\x00{payload.get('target_duration_s')}".encode()
        ).hexdigest()[:16]
        return {
            "uri": f"audio/{key}.wav",
            "duration_s": duration_s,
            "sample_rate_hz": SAMPLE_RATE_HZ,
        }


class ContrastTranslator:
    """Text-only mode loses the final token; speech-guided mode does not.

    The asymmetry makes speech-guided hypotheses strictly closer to the
    reference whenever the reference equals the source text, which is how
    fixture corpora arrange a clean positive partition.
    """

    def __init__(self):
        self.calls = CallCounter()

    def translate(self, payload: dict) -> dict:
        self.calls.bump()
        text = payload["text"]
        if payload["mode"] == "mt":
            tokens = text.split()
            text = " ".join(tokens[:-1])
        return {"text": text}


class LookupTranslator:
    """Scripted outputs keyed by (mode, text); falls back to echo."""

    def __init__(self, outputs: Mapping[tuple[str, str], str]):
        self.outputs = dict(outputs)
        self.calls = CallCounter()

    def translate(self, payload: dict) -> dict:
        self.calls.bump()
        return {"text": self.outputs.get((payload["mode"], payload["text"]),
                                         payload["text"])}


def token_f1(hypothesis: str, reference: str) -> float:
    """Harmonic mean of token precision and recall over multisets."""
    hyp = hypothesis.split()
    ref = reference.split()
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    overlap = sum((Counter(hyp) & Counter(ref)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(hyp)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


class MockScorer:
    """Token-F1 quality estimate; hand-checkable on any fixture pair."""

    def __init__(self):
        self.calls = CallCounter()

    def score(self, payload: dict) -> dict:
        self.calls.bump()
        return {"score": token_f1(payload["hypothesis"], payload["reference"])}


class ScheduledScorer:
    """Quality that follows a per-version schedule.

    Exact-match hypotheses score schedule[version]; anything else scores
    MISS_PENALTY below that (floored at 0). version_provider is read per
    request, so the same instance tracks a model as update rounds bump it.
    """

    def __init__(self, schedule: list[float], version_provider: Callable[[], int]):
        self.schedule = list(schedule)
        self.version_provider = version_provider
        self.calls = CallCounter()

    def score(self, payload: dict) -> dict:
        self.calls.bump()
        version = self.version_provider()
        base = self.schedule[min(version, len(self.schedule) - 1)]
        if payload["hypothesis"] == payload["reference"]:
            return {"score": base}
        return {"score": max(0.0, base - MISS_PENALTY)}
