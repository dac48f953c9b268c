"""Three-stage training plans emitted as declarative job specs.

The engine never trains anything itself. It writes JobSpec documents
(stage and dataset bindings, plus the trainable components the stage
implies and the fixed optimizer and adapter constants) and hands them to
whatever external trainer the deployment wires in. The continual stage
reuses the same document shape, which keeps the update hook contract to
a single schema.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Union

from .errors import MissingBinding, MissingManifest

__all__ = [
    "Stage",
    "Trainable",
    "JobSpec",
    "ADAPTER_META",
    "OPTIMIZER",
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


# Architecture and optimizer constants baked into every spec so
# downstream trainers need no second source of truth.
ADAPTER_META: Mapping[str, int] = MappingProxyType(
    {"queries": 80, "query_dim": 768, "lora_rank": 16, "lora_alpha": 32}
)
OPTIMIZER: Mapping[str, object] = MappingProxyType(
    {"family": "adamw-style", "peak_lr": 1e-4, "warmup_steps": 1000, "decay": "Linear"}
)

# Stages that fine-tune the LLM adapter on top of the speech adapter.
_LLM_STAGES = frozenset({Stage.SMT, Stage.CONTINUAL_SMT})

_PRETRAIN_ORDER = (Stage.ASR, Stage.S2TT, Stage.SMT)


def trainable_for(stage: Stage) -> frozenset:
    """Trainable-component set implied by the stage.

    The speech adapter trains at every stage; the LLM adapter joins only
    for the speech-guided MT stages (initial and continual).
    """
    stage = Stage(stage)
    if stage in _LLM_STAGES:
        return frozenset({Trainable.SPEECH_ADAPTER, Trainable.LLM_ADAPTER})
    return frozenset({Trainable.SPEECH_ADAPTER})


@dataclass(frozen=True)
class JobSpec:
    """One training job: which stage to train, on what data."""

    stage: Stage
    datasets: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "stage", Stage(self.stage))
        object.__setattr__(self, "datasets", tuple(str(p) for p in self.datasets))
        if not self.datasets:
            raise ValueError("JobSpec requires at least one dataset")

    @property
    def trainable(self) -> frozenset:
        return trainable_for(self.stage)

    @property
    def adapter_meta(self) -> Mapping[str, int]:
        return ADAPTER_META

    def to_json(self) -> Dict[str, object]:
        return {
            "stage": self.stage.value,
            "trainable": sorted(t.value for t in self.trainable),
            "datasets": list(self.datasets),
            "optimizer": dict(OPTIMIZER),
            "adapter_meta": dict(ADAPTER_META),
        }


def _as_paths(value: Union[str, Iterable[str]]) -> List[str]:
    if isinstance(value, (str, os.PathLike)):
        return [str(value)]
    return [str(p) for p in value]


def plan_stages(
    dataset_bindings: Mapping[Union[Stage, str], Union[str, Iterable[str]]],
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
        plan.append(JobSpec(stage, paths))
    return plan


def continual_spec(positives_manifest: str, root: Optional[str] = None) -> JobSpec:
    """Job spec for one continual-training round over the positives manifest.

    `root` anchors the existence check when the manifest path is stored
    workspace-relative; the path itself is kept verbatim in the spec.
    """
    path = str(positives_manifest)
    check = os.path.join(root, path) if root is not None else path
    if not os.path.isfile(check):
        raise MissingManifest(f"positives manifest not found: {path}")
    return JobSpec(Stage.CONTINUAL_SMT, [path])
