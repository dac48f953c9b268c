"""One wiring of the cached clients over three backends.

`wire_stack` puts any three backends (HTTP transports or in-process
mocks) behind the cached clients; `build_mock_stack` does it for the
deterministic mocks, for the CLI's --mock flag and for tests that drive
the full loop without a network. The stack shares a single content cache
and a single model-version cell: the translation and scoring clients
namespace their cache entries by version, so post-update responses never
read stale pre-update cache entries. The stack also carries the width at
which the loop's phases fan out calls to its backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .backends.cache import ContentCache
from .backends.clients import EndpointConfig, ScoreClient, TranslateClient, TtsClient
from .backends.mock import ContrastTranslator, MockScorer, MockTts, ScheduledScorer
from .evolution.types import Backends, ModelVersion

__all__ = ["MockStack", "build_mock_stack", "wire_stack", "DEFAULT_VOICE_POOL"]

DEFAULT_VOICE_POOL = ("voice-a", "voice-b", "voice-c", "voice-d", "voice-e")


@dataclass
class MockStack:
    """The cached clients, their version cell and cache, the backends
    behind them, and the fan-out width those backends are run at. Used as
    a context manager, it closes on exit each backend that has a `close`
    (an HTTP transport's kept-alive connections) and the cache."""

    backends: Backends
    version: ModelVersion
    cache: ContentCache
    tts_backend: object
    translate_backend: object
    score_backend: object
    max_in_flight: int

    def __enter__(self) -> "MockStack":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            for backend in (self.tts_backend, self.translate_backend, self.score_backend):
                if hasattr(backend, "close"):
                    backend.close()
        finally:
            self.cache.close()


def wire_stack(
    workspace: str,
    version: ModelVersion,
    tts_backend,
    translate_backend,
    score_backend,
    *,
    max_in_flight: int,
    endpoints: Optional[Mapping[str, EndpointConfig]] = None,
) -> MockStack:
    """Cached clients over the three backends, with one cache under
    `workspace/cache`; `endpoints` holds each client's retry settings and
    `max_in_flight` is the fan-out width suited to this kind of backend."""
    endpoints = endpoints or {}
    cache = ContentCache(Path(workspace) / "cache")
    backends = Backends(
        tts=TtsClient(tts_backend, cache, config=endpoints.get("tts")),
        translate=TranslateClient(
            translate_backend, cache, config=endpoints.get("translate"),
            namespace=version.namespace,
        ),
        score=ScoreClient(
            score_backend, cache, config=endpoints.get("score"),
            namespace=version.namespace,
        ),
    )
    return MockStack(
        backends=backends,
        version=version,
        cache=cache,
        tts_backend=tts_backend,
        translate_backend=translate_backend,
        score_backend=score_backend,
        max_in_flight=max_in_flight,
    )


def build_mock_stack(
    workspace: str,
    translator=None,
    eval_schedule: Optional[Sequence[float]] = None,
) -> MockStack:
    """Build cached clients over deterministic in-process backends.

    By default the translator drops the final token in text-only mode and
    echoes in speech-guided mode, and the scorer is token F1, so speech
    strictly helps on multi-token inputs. Passing `eval_schedule` swaps in
    the version-stepped scorer, which makes eval scores follow the
    schedule as the loop's update phase advances the model version.

    The mocks answer in this process at once, so more threads only
    contend for the GIL and the cache lock: the stack fans out at width 1.
    """
    version = ModelVersion(0)
    translate_backend = translator if translator is not None else ContrastTranslator()
    if eval_schedule is not None:
        score_backend = ScheduledScorer(
            list(eval_schedule), version_provider=lambda: version.value
        )
    else:
        score_backend = MockScorer()

    return wire_stack(workspace, version, MockTts(), translate_backend, score_backend,
                      max_in_flight=1)
