"""Domain types for the self-evolution loop."""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..atomic import json_fields, json_number
from ..corpus import Sample
from ..errors import ResumeStateCorrupt

__all__ = [
    "Label",
    "SpeechUsed",
    "SpeechSource",
    "RoundStatus",
    "label_for",
    "ScoredSample",
    "RoundState",
    "EvolutionConfig",
    "Backends",
    "ModelVersion",
]


class Label(str, enum.Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"


class SpeechUsed(str, enum.Enum):
    AUTHENTIC = "Authentic"
    SYNTHETIC = "Synthetic"


class SpeechSource(str, enum.Enum):
    PREFER_SYNTHETIC = "PreferSynthetic"
    PREFER_AUTHENTIC = "PreferAuthentic"


class RoundStatus(str, enum.Enum):
    IMPROVED = "Improved"
    PLATEAU = "Plateau"
    CONVERGED = "Converged"
    MAX_ROUNDS = "MaxRounds"


def label_for(s1: float, s2: float) -> Label:
    """Positive only when speech strictly helps; ties are Negative."""
    return Label.POSITIVE if s2 > s1 else Label.NEGATIVE


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0,1], got {value}")
    return value


@dataclass(frozen=True)
class ScoredSample:
    """Labeled outcome of one refinement comparison.

    s1 scores the text-only translation, s2 the speech-guided one, and the
    label follows from them. The full Sample is kept so manifests can be
    written without a second lookup.
    """

    sample: Sample
    speech_used: SpeechUsed
    s1: float
    s2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "speech_used", SpeechUsed(self.speech_used))
        object.__setattr__(self, "s1", _check_unit("s1", self.s1))
        object.__setattr__(self, "s2", _check_unit("s2", self.s2))

    @property
    def label(self) -> Label:
        return label_for(self.s1, self.s2)

    def to_row(self) -> Dict[str, object]:
        """Manifest row: the full sample record plus the refinement verdict."""
        row = self.sample.to_json()
        row.update(
            s1=self.s1,
            s2=self.s2,
            label=self.label.value,
            speech_used=self.speech_used.value,
        )
        return row

    @classmethod
    def from_row(cls, sample: Sample) -> "ScoredSample":
        """Rebuild the scored record from a journaled row, loaded as a Sample.
        The row's label must be the one its scores give."""
        ann = sample.annotations
        try:
            scored = cls(sample, ann["speech_used"], json_number(ann["s1"]),
                         json_number(ann["s2"]))
            if Label(ann["label"]) is not scored.label:
                raise ValueError(
                    f"label {ann['label']} contradicts s1={scored.s1}, s2={scored.s2}"
                )
            return scored
        except (KeyError, TypeError, ValueError) as exc:
            raise ResumeStateCorrupt(
                f"scored manifest row for {sample.id} is inconsistent: {exc}"
            ) from exc


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
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
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
