"""Domain types for the self-evolution loop."""

from __future__ import annotations

import enum
import threading
from dataclasses import MISSING, dataclass, field, fields
from typing import AbstractSet, Dict, Optional, Tuple

from ..corpus import Sample
from ..errors import ResumeStateCorrupt

__all__ = [
    "json_fields",
    "json_integer",
    "json_number",
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


# --- JSON type checks -----------------------------------------------------------
# A value decoded from JSON must have one of its field's exact types: an
# integer is an int, never a bool; a number is an int or a float, never a
# bool or a string. A TypeError says what was expected.

def _expect(value, kinds, name: str):
    if type(value) not in kinds:
        raise TypeError(f"expected {name}, got {value!r}")
    return value


def json_number(value) -> float:
    return float(_expect(value, (int, float), "a number"))


def json_integer(value) -> int:
    return _expect(value, (int,), "an integer")


# by a field's annotation: the exact types `json.loads` may give for it,
# their name in errors, and the conversion to the field's value, if any
_JSON_TYPES = {
    "int": ((int,), "an integer", None),
    "float": ((int, float), "a number", float),
    "str": ((str,), "a string", None),
    "Dict[str, float]": ((dict,), "an object",
                         lambda value: {key: json_number(v) for key, v in value.items()}),
    "Tuple[str, ...]": ((list,), "a list",
                        lambda value: tuple(_expect(v, (str,), "a string") for v in value)),
    "RoundStatus": ((str,), "a string", RoundStatus),
    "SpeechSource": ((str,), "a string", SpeechSource),
}


def json_fields(obj: object, cls, required: AbstractSet[str] = frozenset(),
                prefix: str = "") -> Dict[str, object]:
    """The fields of dataclass `cls` that JSON object `obj` holds, each
    checked against the JSON types its annotation names. A field with no
    default, or one named in `required`, must be present. A ValueError
    names the key that is missing or mistyped, after `prefix`."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {obj!r}")
    values = {}
    for f in fields(cls):
        if f.name not in obj:
            if f.name in required or f.default is f.default_factory is MISSING:
                raise ValueError(f"lacks {prefix + f.name!r}")
            continue
        kinds, kind_name, convert = _JSON_TYPES[f.type]
        try:
            value = _expect(obj[f.name], kinds, kind_name)
            values[f.name] = value if convert is None else convert(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{prefix}{f.name}: {exc}") from None
    return values


@dataclass(frozen=True)
class ScoredSample:
    """Labeled outcome of one refinement comparison.

    s1 scores the text-only translation, s2 the speech-guided one. The
    full Sample rides along (excluded from equality) so manifests can be
    written without a second lookup.
    """

    sample_id: str
    speech_used: SpeechUsed
    s1: float
    s2: float
    label: Label
    sample: Optional[Sample] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "speech_used", SpeechUsed(self.speech_used))
        object.__setattr__(self, "s1", _check_unit("s1", self.s1))
        object.__setattr__(self, "s2", _check_unit("s2", self.s2))
        object.__setattr__(self, "label", Label(self.label))
        if self.label is not label_for(self.s1, self.s2):
            raise ValueError(
                f"label {self.label.value} contradicts s1={self.s1}, s2={self.s2}"
            )

    @classmethod
    def from_scores(
        cls,
        sample: Sample,
        speech_used: SpeechUsed,
        s1: float,
        s2: float,
    ) -> "ScoredSample":
        return cls(
            sample_id=sample.id,
            speech_used=speech_used,
            s1=float(s1),
            s2=float(s2),
            label=label_for(s1, s2),
            sample=sample,
        )

    def to_row(self) -> Dict[str, object]:
        """Manifest row: the full sample record plus the refinement verdict."""
        if self.sample is None:
            raise ValueError(f"scored sample {self.sample_id} lacks its sample record")
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
        """Rebuild the scored record from a journaled row, loaded as a Sample."""
        ann = sample.annotations
        try:
            return cls(
                sample_id=sample.id,
                speech_used=SpeechUsed(ann["speech_used"]),
                s1=json_number(ann["s1"]),
                s2=json_number(ann["s2"]),
                label=Label(ann["label"]),
                sample=sample,
            )
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
        return {
            "epsilon": self.epsilon,
            "patience": self.patience,
            "max_rounds": self.max_rounds,
            "seed": self.seed,
            "speech_source": self.speech_source.value,
            "fixed_eval_voice": self.fixed_eval_voice,
        }

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
