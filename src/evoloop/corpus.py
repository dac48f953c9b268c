"""Sample manifests: loading, validation, hashing, filtering, partitioning.

Manifests are UTF-8 JSONL, one sample object per line:

    required: src_lang, tgt_lang, text, reference
    optional: id, authentic_audio, synthetic_audio,
              degraded, s1, s2, label, speech_used   (refinement verdict)

Audio objects carry {uri, duration_s, sample_rate_hz, voice_id}; whether a
clip is authentic or synthetic is implied by the field it sits in, and a
synthetic clip must name its voice_id. The four verdict keys come all
together or not at all. Text bytes are preserved exactly as stored (no
Unicode normalization) so metric scores stay reproducible against
external tools.
"""

from __future__ import annotations

import enum
import hashlib
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from .atomic import (
    canonical_payload,
    json_expect,
    json_field,
    json_fields,
    json_string,
    read_jsonl,
    write_jsonl,
)
from .errors import (
    EmptyField,
    IdMismatch,
    MalformedLine,
    UnknownField,
    UnknownLanguage,
)

logger = logging.getLogger(__name__)


class ResourceLevel(str, enum.Enum):
    LOW = "Low"
    MED = "Med"
    HIGH = "High"


# The 28 supported languages and their resource levels.
_TAXONOMY: dict[str, tuple[str, ResourceLevel]] = {
    "ara": ("Arabic", ResourceLevel.HIGH),
    "ben": ("Bengali", ResourceLevel.MED),
    "ces": ("Czech", ResourceLevel.HIGH),
    "cmn": ("Chinese", ResourceLevel.HIGH),
    "deu": ("German", ResourceLevel.HIGH),
    "eng": ("English", ResourceLevel.HIGH),
    "fas": ("Persian", ResourceLevel.HIGH),
    "fra": ("French", ResourceLevel.HIGH),
    "heb": ("Hebrew", ResourceLevel.MED),
    "hin": ("Hindi", ResourceLevel.HIGH),
    "ind": ("Indonesian", ResourceLevel.MED),
    "ita": ("Italian", ResourceLevel.HIGH),
    "jpn": ("Japanese", ResourceLevel.HIGH),
    "khm": ("Khmer", ResourceLevel.LOW),
    "kor": ("Korean", ResourceLevel.HIGH),
    "lao": ("Lao", ResourceLevel.LOW),
    "msa": ("Malay", ResourceLevel.MED),
    "mya": ("Burmese", ResourceLevel.LOW),
    "nld": ("Dutch", ResourceLevel.HIGH),
    "pol": ("Polish", ResourceLevel.HIGH),
    "por": ("Portuguese", ResourceLevel.HIGH),
    "rus": ("Russian", ResourceLevel.HIGH),
    "spa": ("Spanish", ResourceLevel.HIGH),
    "tgl": ("Tagalog", ResourceLevel.MED),
    "tha": ("Thai", ResourceLevel.MED),
    "tur": ("Turkish", ResourceLevel.HIGH),
    "urd": ("Urdu", ResourceLevel.MED),
    "vie": ("Vietnamese", ResourceLevel.HIGH),
}

SUPPORTED_LANGUAGES: tuple[str, ...] = tuple(sorted(_TAXONOMY))


def resource_level(code: str) -> ResourceLevel:
    """Resource level of a supported language code."""
    _require_known(code)
    return _TAXONOMY[code][1]


def _require_known(code: str, line_no: int | None = None) -> None:
    if not isinstance(code, str) or code not in _TAXONOMY:
        raise UnknownLanguage(str(code), line_no)


@dataclass(frozen=True)
class AudioRef:
    """Descriptor of a speech asset; never decodes audio."""

    uri: str  # workspace-relative path
    duration_s: float
    sample_rate_hz: int
    voice_id: str = ""

    def __post_init__(self):
        if self.duration_s < 0:
            raise ValueError(f"negative duration: {self.duration_s}")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"bad sample rate: {self.sample_rate_hz}")

    def to_json(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_json(cls, obj: dict) -> "AudioRef":
        """Parse an audio object; a value of another JSON type is refused
        with a ValueError that names its key."""
        return cls(**json_fields(obj, cls))


class Label(str, enum.Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"


class SpeechUsed(str, enum.Enum):
    AUTHENTIC = "Authentic"
    SYNTHETIC = "Synthetic"


def label_for(s1: float, s2: float) -> Label:
    """Positive only when speech strictly helps; ties are Negative."""
    return Label.POSITIVE if s2 > s1 else Label.NEGATIVE


@dataclass(frozen=True)
class Verdict:
    """Outcome of one refinement comparison.

    s1 scores the text-only translation, s2 the speech-guided one, which
    heard the `speech_used` clip; the label follows from the scores.
    """

    speech_used: SpeechUsed
    s1: float
    s2: float

    def __post_init__(self) -> None:
        for name, value in (("s1", self.s1), ("s2", self.s2)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {value}")

    @property
    def label(self) -> Label:
        return label_for(self.s1, self.s2)

    def to_json(self) -> dict:
        return {"s1": self.s1, "s2": self.s2, "label": self.label.value,
                "speech_used": self.speech_used.value}

    @classmethod
    def from_json(cls, obj: dict) -> "Verdict":
        """Parse the four verdict keys of a manifest row; the stored label
        must be the one the scores give. A ValueError names the key."""
        verdict = cls(**json_fields(obj, cls))
        label = json_field(obj, "label", lambda value: Label(json_string(value)))
        if label is not verdict.label:
            raise ValueError(
                f"label: {label.value} contradicts s1={verdict.s1}, s2={verdict.s2}")
        return verdict


def hash_sample(text: str, reference: str, src_lang: str, tgt_lang: str) -> str:
    """Stable content id: SHA-256 over the canonical JSON array
    [src_lang, tgt_lang, text, reference], serialized without whitespace."""
    canonical = canonical_payload([src_lang, tgt_lang, text, reference])
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Sample:
    """One corpus item: source text plus its reference translation."""

    id: str
    src_lang: str
    tgt_lang: str
    text: str
    reference: str
    authentic_audio: AudioRef | None = None
    synthetic_audio: AudioRef | None = None
    degraded: bool = False
    verdict: Verdict | None = field(default=None, compare=False)

    @property
    def direction(self) -> tuple[str, str]:
        return (self.src_lang, self.tgt_lang)

    @classmethod
    def build(
        cls,
        src_lang: str,
        tgt_lang: str,
        text: str,
        reference: str,
        **kwargs,
    ) -> "Sample":
        """Construct with a derived id; use for fresh, unhashed records."""
        return cls(
            id=hash_sample(text, reference, src_lang, tgt_lang),
            src_lang=src_lang,
            tgt_lang=tgt_lang,
            text=text,
            reference=reference,
            **kwargs,
        )

    def with_synthetic_audio(self, audio: AudioRef, degraded: bool = False) -> "Sample":
        return replace(self, synthetic_audio=audio, degraded=degraded)

    def to_json(self) -> dict:
        obj: dict = {
            "id": self.id,
            "src_lang": self.src_lang,
            "tgt_lang": self.tgt_lang,
            "text": self.text,
            "reference": self.reference,
        }
        if self.authentic_audio is not None:
            obj["authentic_audio"] = self.authentic_audio.to_json()
        if self.synthetic_audio is not None:
            obj["synthetic_audio"] = self.synthetic_audio.to_json()
        if self.degraded:
            obj["degraded"] = True
        if self.verdict is not None:
            obj.update(self.verdict.to_json())
        return obj


_REQUIRED_FIELDS = ("src_lang", "tgt_lang", "text", "reference")
_VERDICT_FIELDS = ("s1", "s2", "label", "speech_used")
_KNOWN_FIELDS = frozenset(
    _REQUIRED_FIELDS
    + ("id", "authentic_audio", "synthetic_audio", "degraded")
    + _VERDICT_FIELDS
)


def sample_from_json(obj: dict, line_no: int | None = None, strict: bool = False) -> Sample:
    """Validate one manifest object and construct the Sample.

    The stored id, when present, must match the recomputed content hash.
    """
    for key in obj:
        if key not in _KNOWN_FIELDS:
            if strict:
                raise UnknownField(key, line_no)
            logger.warning("manifest line %s: ignoring unknown field %r", line_no, key)

    for key in _REQUIRED_FIELDS:
        value = obj.get(key)
        if not isinstance(value, str) or not value.strip():
            raise EmptyField(key, line_no)

    src, tgt = obj["src_lang"], obj["tgt_lang"]
    _require_known(src, line_no)
    _require_known(tgt, line_no)
    if src == tgt:
        raise MalformedLine(line_no or 0, "src_lang equals tgt_lang")

    try:
        authentic, synthetic = (
            None if obj.get(key) is None else json_field(obj, key, AudioRef.from_json)
            for key in ("authentic_audio", "synthetic_audio"))
        if synthetic is not None and not synthetic.voice_id:
            raise ValueError("synthetic audio requires a voice_id")
    except ValueError as exc:
        raise MalformedLine(line_no or 0, f"bad audio object: {exc}") from exc
    try:
        degraded = json_expect(obj.get("degraded", False), (bool,), "a boolean")
    except TypeError as exc:
        raise MalformedLine(line_no or 0, f"degraded: {exc}") from None
    try:
        verdict = (Verdict.from_json(obj) if any(key in obj for key in _VERDICT_FIELDS)
                   else None)
    except ValueError as exc:
        raise MalformedLine(line_no or 0, f"bad verdict: {exc}") from None

    computed = hash_sample(obj["text"], obj["reference"], src, tgt)
    stored = obj.get("id")
    if stored is not None and stored != computed:
        raise IdMismatch(line_no or 0, stored, computed)

    return Sample(
        id=computed,
        src_lang=src,
        tgt_lang=tgt,
        text=obj["text"],
        reference=obj["reference"],
        authentic_audio=authentic,
        synthetic_audio=synthetic,
        degraded=degraded,
        verdict=verdict,
    )


def load_manifest(
    path: str | Path, strict: bool = False, *, data: bytes | None = None
) -> list[Sample]:
    """Load a JSONL manifest, validating every line.

    Samples come back in file order; ids are recomputed and verified against
    any stored id field; the first invalid line raises. `data`, when given,
    is the file's content already read: it is parsed as the file would be,
    and the file is not opened again. Either way lines are decoded as they
    stream, so no decoded copy of the whole file is held.
    """
    samples = []
    for line_no, row in read_jsonl(path if data is None else data):
        if isinstance(row, str):
            raise MalformedLine(line_no, row)
        samples.append(sample_from_json(row, line_no, strict=strict))
    return samples


def save_manifest(samples: Iterable[Sample], path: str | Path) -> bytes:
    return write_jsonl(path, (sample.to_json() for sample in samples))


def split_directions(samples: Iterable[Sample]) -> dict[tuple[str, str], list[Sample]]:
    """Group samples by (src_lang, tgt_lang); within-group order preserved."""
    groups: dict[tuple[str, str], list[Sample]] = {}
    for sample in samples:
        groups.setdefault(sample.direction, []).append(sample)
    return groups
