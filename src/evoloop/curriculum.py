"""Three-stage training plans emitted as declarative job specs.

The engine never trains anything itself. It writes JobSpec documents
(stage, trainable components, dataset bindings, optimizer defaults) and
hands them to whatever external trainer the deployment wires in. The
continual stage reuses the same document shape, which keeps the update
hook contract to a single schema.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .errors import MissingBinding, MissingManifest

__all__ = [
    "Stage",
    "Trainable",
    "OptimizerConfig",
    "JobSpec",
    "ADAPTER_META",
    "DEFAULT_OPTIMIZER",
    "trainable_for",
    "plan_stages",
    "continual_spec",
]


class Stage(str, Enum):
    ASR = "ASR"
    S2TT = "S2TT"
    SMT = "SMT"
    CONTINUAL_SMT = "ContinualSMT"


class Trainable(str, Enum):
    SPEECH_ADAPTER = "SpeechAdapter"
    LLM_ADAPTER = "LlmAdapter"


# Architecture constants baked into every spec so downstream trainers
# need no second source of truth.
ADAPTER_META: Mapping[str, int] = MappingProxyType(
    {"queries": 80, "query_dim": 768, "lora_rank": 16, "lora_alpha": 32}
)

# Stages that fine-tune the LLM adapter on top of the speech adapter.
_LLM_STAGES = frozenset({Stage.SMT, Stage.CONTINUAL_SMT})

_PRETRAIN_ORDER = (Stage.ASR, Stage.S2TT, Stage.SMT)


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer defaults shared by all stages."""

    family: str = "adamw-style"
    peak_lr: float = 1e-4
    warmup_steps: int = 1000
    decay: str = "Linear"

    def __post_init__(self) -> None:
        if not self.family:
            raise ValueError("optimizer family must be non-empty")
        if not self.peak_lr > 0:
            raise ValueError(f"peak_lr must be positive, got {self.peak_lr}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.decay != "Linear":
            raise ValueError(f"unsupported decay schedule: {self.decay}")

    def to_json(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "peak_lr": self.peak_lr,
            "warmup_steps": self.warmup_steps,
            "decay": self.decay,
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, object]) -> "OptimizerConfig":
        return cls(
            family=str(obj["family"]),
            peak_lr=float(obj["peak_lr"]),  # type: ignore[arg-type]
            warmup_steps=int(obj["warmup_steps"]),  # type: ignore[arg-type]
            decay=str(obj["decay"]),
        )


DEFAULT_OPTIMIZER = OptimizerConfig()


def trainable_for(stage: Stage) -> frozenset:
    """Trainable-component set implied by the stage.

    The speech adapter trains at every stage; the LLM adapter joins only
    for the speech-guided MT stages (initial and continual).
    """
    stage = Stage(stage)
    if stage in _LLM_STAGES:
        return frozenset({Trainable.SPEECH_ADAPTER, Trainable.LLM_ADAPTER})
    return frozenset({Trainable.SPEECH_ADAPTER})


@dataclass(frozen=True, eq=True)
class JobSpec:
    """One training job: what to train, on what data, how to step."""

    stage: Stage
    trainable: frozenset
    datasets: tuple
    optimizer: OptimizerConfig = DEFAULT_OPTIMIZER
    # A factory, not a plain default: from 3.11 dataclasses refuse a default
    # whose type has no __hash__, as mappingproxy before 3.12. Left out of the
    # hash: hashing the mapping raises TypeError, and __post_init__ pins it.
    adapter_meta: Mapping[str, int] = field(default_factory=lambda: ADAPTER_META, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stage", Stage(self.stage))
        object.__setattr__(self, "trainable", frozenset(Trainable(t) for t in self.trainable))
        object.__setattr__(self, "datasets", tuple(str(p) for p in self.datasets))
        if Trainable.SPEECH_ADAPTER not in self.trainable:
            raise ValueError(f"stage {self.stage.value} must train the speech adapter")
        wants_llm = self.stage in _LLM_STAGES
        has_llm = Trainable.LLM_ADAPTER in self.trainable
        if wants_llm != has_llm:
            raise ValueError(
                f"stage {self.stage.value} trainable set is {sorted(t.value for t in self.trainable)}"
            )
        if not self.datasets:
            raise ValueError("JobSpec requires at least one dataset")
        if dict(self.adapter_meta) != dict(ADAPTER_META):
            raise ValueError("adapter_meta must carry the fixed architecture constants")
        object.__setattr__(self, "adapter_meta", ADAPTER_META)

    @classmethod
    def build(
        cls,
        stage: Union[Stage, str],
        datasets: Sequence[str],
        optimizer: Optional[OptimizerConfig] = None,
    ) -> "JobSpec":
        """Construct a spec with the trainable set derived from the stage."""
        stage = Stage(stage)
        return cls(
            stage=stage,
            trainable=trainable_for(stage),
            datasets=tuple(datasets),
            optimizer=optimizer or DEFAULT_OPTIMIZER,
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "stage": self.stage.value,
            "trainable": sorted(t.value for t in self.trainable),
            "datasets": list(self.datasets),
            "optimizer": self.optimizer.to_json(),
            "adapter_meta": dict(self.adapter_meta),
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, object]) -> "JobSpec":
        return cls(
            stage=Stage(str(obj["stage"])),
            trainable=frozenset(Trainable(t) for t in obj["trainable"]),  # type: ignore[union-attr]
            datasets=tuple(str(p) for p in obj["datasets"]),  # type: ignore[union-attr]
            optimizer=OptimizerConfig.from_json(obj["optimizer"]),  # type: ignore[arg-type]
            adapter_meta=obj["adapter_meta"],  # type: ignore[arg-type]
        )


def _as_paths(value: Union[str, Iterable[str]]) -> List[str]:
    if isinstance(value, (str, os.PathLike)):
        return [str(value)]
    return [str(p) for p in value]


def plan_stages(
    dataset_bindings: Mapping[Union[Stage, str], Union[str, Iterable[str]]],
    optimizer: Optional[OptimizerConfig] = None,
) -> List[JobSpec]:
    """Emit the fixed ASR -> S2TT -> SMT pre-training plan.

    `dataset_bindings` maps each of the three stages to one or more
    manifest paths. All three must be bound.
    """
    normalized: Dict[Stage, List[str]] = {}
    for key, value in dataset_bindings.items():
        stage = Stage(key)
        if stage is Stage.CONTINUAL_SMT:
            raise ValueError("ContinualSMT is not a pre-training stage")
        normalized[stage] = _as_paths(value)

    plan = []
    for stage in _PRETRAIN_ORDER:
        paths = normalized.get(stage)
        if not paths:
            raise MissingBinding(stage.value)
        plan.append(JobSpec.build(stage, paths, optimizer=optimizer))
    return plan


def continual_spec(
    positives_manifest: str,
    round_index: int,
    optimizer: Optional[OptimizerConfig] = None,
    root: Optional[str] = None,
) -> JobSpec:
    """Job spec for one continual-training round over the positives manifest.

    `root` anchors the existence check when the manifest path is stored
    workspace-relative; the path itself is kept verbatim in the spec.
    """
    if round_index < 1:
        raise ValueError(f"round_index must be >= 1, got {round_index}")
    path = str(positives_manifest)
    check = os.path.join(root, path) if root is not None else path
    if not os.path.isfile(check):
        raise MissingManifest(f"positives manifest not found: {path}")
    return JobSpec.build(Stage.CONTINUAL_SMT, [path], optimizer=optimizer)
