"""Domain types for the self-evolution loop."""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..atomic import json_fields
from ..corpus import Label, SpeechUsed, label_for

__all__ = [
    "Label",
    "SpeechUsed",
    "SpeechSource",
    "RoundStatus",
    "label_for",
    "RoundState",
    "EvolutionConfig",
    "Backends",
    "ModelVersion",
]


class SpeechSource(str, enum.Enum):
    PREFER_SYNTHETIC = "PreferSynthetic"
    PREFER_AUTHENTIC = "PreferAuthentic"


class RoundStatus(str, enum.Enum):
    IMPROVED = "Improved"
    PLATEAU = "Plateau"
    CONVERGED = "Converged"
    MAX_ROUNDS = "MaxRounds"


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0,1], got {value}")
    return value


@dataclass(frozen=True)
class RoundState:
    """Summary of one completed round, as journaled in state.json."""

    round_index: int
    acquisition_manifest: str
    positives_manifest: str
    negatives_manifest: str
    n_positive: int
    n_negative: int
    eval_score: float
    delta_vs_best: float
    status: RoundStatus
    # mean eval score per `src-tgt`
    eval_by_direction: Dict[str, float] = field(default_factory=dict)
    # set when the round's update was skipped; state.json omits it when empty
    warnings: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {self.round_index}")
        if self.n_positive < 0 or self.n_negative < 0:
            raise ValueError("sample counts must be non-negative")
        object.__setattr__(self, "eval_score", _check_unit("eval_score", self.eval_score))
        object.__setattr__(self, "delta_vs_best", float(self.delta_vs_best))
        object.__setattr__(self, "status", RoundStatus(self.status))

    def to_json(self) -> Dict[str, object]:
        obj = {**vars(self), "status": self.status.value, "warnings": list(self.warnings)}
        if not self.warnings:
            del obj["warnings"]
        return obj

    @classmethod
    def from_json(cls, obj: object) -> "RoundState":
        """Parse state.json's object. Every key but `warnings` is required,
        and every value must have its JSON type; an error names its key."""
        return cls(**json_fields(obj, cls, required={"eval_by_direction"}))


@dataclass(frozen=True)
class EvolutionConfig:
    """Loop parameters. epsilon and eval_score share the [0,1] scale."""

    epsilon: float = 0.001
    patience: int = 1
    max_rounds: int = 5
    seed: int = 0
    speech_source: SpeechSource = SpeechSource.PREFER_SYNTHETIC
    fixed_eval_voice: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be a finite number > 0, got {self.epsilon}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        object.__setattr__(self, "speech_source", SpeechSource(self.speech_source))

    def to_json(self) -> Dict[str, object]:
        return {**vars(self), "speech_source": self.speech_source.value}

    @classmethod
    def from_json(cls, obj: object, prefix: str = "") -> "EvolutionConfig":
        """Missing keys take the field defaults. A value must have its
        field's JSON type; an integer is taken for a float field and kept as
        a float, which fixes `to_json()` and so the journal fingerprint. An
        error names the key after `prefix`."""
        return cls(**json_fields(obj, cls, prefix=prefix))


@dataclass
class Backends:
    """The three clients a loop run needs. Any objects with the same
    method shapes (synthesize/translate/score) are accepted."""

    tts: object
    translate: object
    score: object


class ModelVersion:
    """Mutable, thread-safe version counter shared with backend wrappers.

    The loop sets it from the journal; cache namespaces and mock scorers
    read it through closures, so post-update responses never collide with
    pre-update cache entries.
    """

    def __init__(self, value: int = 0):
        self._lock = threading.Lock()
        self._value = int(value)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def set(self, value: int) -> None:
        with self._lock:
            self._value = int(value)

    def namespace(self) -> str:
        return f"v{self.value}"

    def __repr__(self) -> str:
        return f"ModelVersion({self.value})"
