"""Self-evolution loop: acquisition, refinement, update, evaluation."""

from .journal import Journal, fingerprint_inputs
from .loop import check_convergence, run_loop, run_update_hook
from .phases import (
    DEFAULT_FAILURE_BUDGET,
    PartitionResult,
    choose_voice,
    empty_positives_warning,
    fan_out,
    partition_and_emit,
    pick_audio,
    run_acquisition,
    run_evaluation,
    run_refinement,
)
from .types import (
    Backends,
    EvolutionConfig,
    Label,
    ModelVersion,
    RoundState,
    RoundStatus,
    ScoredSample,
    SpeechSource,
    SpeechUsed,
    label_for,
)

__all__ = [
    "Journal",
    "fingerprint_inputs",
    "check_convergence",
    "run_loop",
    "run_update_hook",
    "DEFAULT_FAILURE_BUDGET",
    "PartitionResult",
    "choose_voice",
    "empty_positives_warning",
    "fan_out",
    "partition_and_emit",
    "pick_audio",
    "run_acquisition",
    "run_evaluation",
    "run_refinement",
    "Backends",
    "EvolutionConfig",
    "Label",
    "ModelVersion",
    "RoundState",
    "RoundStatus",
    "ScoredSample",
    "SpeechSource",
    "SpeechUsed",
    "label_for",
]
