"""Validated client facades over the three model services.

A client owns validation, caching, and retry; the transport underneath (HTTP
or an in-process mock) only moves JSON dicts. Decode settings are
engine-owned constants: beam 1, temperature 0, applied to every translation
request uniformly.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable

from ..corpus import AudioOrigin, AudioRef
from ..errors import (
    DurationOverrun,
    EmptyTranslation,
    ModeAudioMismatch,
    PermanentBackendError,
    ScoreOutOfRange,
    SynthesisRejected,
)
from .batch import with_retry
from .cache import ContentCache, entry_key

BEAM = 1
TEMPERATURE = 0.0
DURATION_LIMIT_S = 30.0


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str = ""
    timeout_s: float = 30.0
    max_attempts: int = 3
    backoff_base_ms: int = 100

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_ms <= 0:
            raise ValueError(f"backoff_base_ms must be positive, got {self.backoff_base_ms}")


class TranslationMode(str, enum.Enum):
    MT = "mt"    # text-only input
    SMT = "smt"  # text plus speech


@dataclass(frozen=True)
class Hypothesis:
    mode: TranslationMode
    text: str


class _CachedClient:
    def __init__(self, backend, cache: ContentCache, endpoint: str,
                 config: EndpointConfig,
                 namespace: str | Callable[[], str] = "v0",
                 sleep: Callable[[float], None] = time.sleep):
        self._backend = backend
        self._cache = cache
        self._endpoint = endpoint
        self._config = config
        self._namespace = namespace
        self._sleep = sleep

    def namespace(self) -> str:
        return self._namespace() if callable(self._namespace) else self._namespace

    def _call(self, method: Callable[[dict], dict], payload: dict) -> dict:
        # hashed once for both the get and a miss's put
        key = entry_key(self._endpoint, self.namespace(), payload)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        response, _ = with_retry(
            lambda: method(payload),
            endpoint=self._endpoint,
            max_attempts=self._config.max_attempts,
            backoff_base_ms=self._config.backoff_base_ms,
            sleep=self._sleep,
        )
        self._cache.put(key, response)
        return response


class TtsClient(_CachedClient):
    def __init__(self, backend, cache, config: EndpointConfig | None = None, **kwargs):
        super().__init__(backend, cache, "tts", config or EndpointConfig(), **kwargs)

    def synthesize(
        self, text: str, voice_id: str, target_duration_s: float | None = None
    ) -> AudioRef:
        """Synthesize speech; returns the audio descriptor.

        Clips longer than the duration ceiling raise DurationOverrun with the
        descriptor attached, so callers can keep the clip and mark the sample
        degraded instead of losing it.
        """
        if not text:
            raise SynthesisRejected("empty text")
        if not voice_id:
            raise SynthesisRejected("empty voice_id")
        payload: dict = {"text": text, "voice_id": voice_id}
        if target_duration_s is not None:
            payload["target_duration_s"] = float(target_duration_s)
        try:
            resp = self._call(self._backend.tts, payload)
        except PermanentBackendError as exc:
            raise SynthesisRejected(exc.detail or exc.error or str(exc)) from exc
        audio = AudioRef(
            uri=resp["uri"],
            duration_s=float(resp["duration_s"]),
            sample_rate_hz=int(resp["sample_rate_hz"]),
            origin=AudioOrigin.SYNTHETIC,
            voice_id=voice_id,
        )
        if audio.duration_s > DURATION_LIMIT_S:
            raise DurationOverrun(audio, DURATION_LIMIT_S)
        return audio


class TranslateClient(_CachedClient):
    def __init__(self, backend, cache, config: EndpointConfig | None = None, **kwargs):
        super().__init__(backend, cache, "translate", config or EndpointConfig(), **kwargs)

    def translate(
        self,
        mode: TranslationMode | str,
        text: str,
        audio: AudioRef | None,
        direction: tuple[str, str],
    ) -> Hypothesis:
        """Request one hypothesis. Speech-guided mode requires audio;
        text-only mode forbids it."""
        mode = TranslationMode(mode)
        if mode is TranslationMode.SMT and audio is None:
            raise ModeAudioMismatch("smt requires audio")
        if mode is TranslationMode.MT and audio is not None:
            raise ModeAudioMismatch("mt must not carry audio")
        src_lang, tgt_lang = direction
        payload: dict = {"mode": mode.value, "text": text}
        if audio is not None:
            payload["audio_uri"] = audio.uri
        payload.update(
            src_lang=src_lang,
            tgt_lang=tgt_lang,
            beam=BEAM,
            temperature=TEMPERATURE,
        )
        resp = self._call(self._backend.translate, payload)
        out = resp["text"]
        if not isinstance(out, str) or not out.strip():
            raise EmptyTranslation(f"{direction}: backend returned empty text")
        return Hypothesis(mode=mode, text=out)


class ScoreClient(_CachedClient):
    def __init__(self, backend, cache, config: EndpointConfig | None = None, **kwargs):
        super().__init__(backend, cache, "score", config or EndpointConfig(), **kwargs)

    def score(self, source: str, hypothesis: str, reference: str) -> float:
        if not source or not hypothesis or not reference:
            raise ValueError("score() requires non-empty source/hypothesis/reference")
        payload = {"source": source, "hypothesis": hypothesis, "reference": reference}
        resp = self._call(self._backend.score, payload)
        value = resp["score"]
        if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
            raise ScoreOutOfRange(value)
        return float(value)
