"""Model-service clients: transports, mocks, caching, batching.

`HttpTransport` loads on first access, so importing this package does
not import the transport module or `socket`.
"""

from .batch import (
    DEFAULT_FAILURE_BUDGET,
    BatchResult,
    enforce_failure_budget,
    run_batch,
    with_retry,
)
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
    "DEFAULT_FAILURE_BUDGET",
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
    "enforce_failure_budget",
    "entry_key",
    "run_batch",
    "with_retry",
]


def __getattr__(name):
    if name == "HttpTransport":
        from .transport import HttpTransport
        return HttpTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
