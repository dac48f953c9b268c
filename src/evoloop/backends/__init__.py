"""Model-service clients: transports, mocks, caching, batching.

`HttpTransport` loads on first access, so importing this package does
not import the transport module or `socket`.
"""

from .batch import BatchResult, run_batch, with_retry
from .cache import ContentCache, entry_key
from .clients import (
    BEAM,
    DURATION_LIMIT_S,
    TEMPERATURE,
    EndpointConfig,
    Hypothesis,
    ScoreClient,
    TranslateClient,
    TranslationMode,
    TtsClient,
)

__all__ = [
    "BEAM",
    "DURATION_LIMIT_S",
    "TEMPERATURE",
    "BatchResult",
    "ContentCache",
    "EndpointConfig",
    "HttpTransport",
    "Hypothesis",
    "ScoreClient",
    "TranslateClient",
    "TranslationMode",
    "TtsClient",
    "entry_key",
    "run_batch",
    "with_retry",
]


def __getattr__(name):
    if name == "HttpTransport":
        from .transport import HttpTransport
        return HttpTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
