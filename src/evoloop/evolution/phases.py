"""The four loop phases: acquisition, refinement, partition, evaluation.

Each phase is a pure function of its inputs plus the backend clients;
all randomness is derived per sample from (seed, sample_id) so results
never depend on batch order or thread scheduling.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import curriculum
from ..atomic import write_json, write_jsonl
from ..backends.batch import run_batch
from ..corpus import AudioRef, Sample, Verdict
from ..errors import DurationOverrun, EmptyEvalSet, EmptyInput, FailureBudgetExceeded, MissingAudio
from .types import (
    EvolutionConfig,
    Label,
    SpeechSource,
    SpeechUsed,
)

log = logging.getLogger(__name__)

# the share of a phase's samples that may fail before the run stops
DEFAULT_FAILURE_BUDGET = 0.05

__all__ = [
    "DEFAULT_FAILURE_BUDGET",
    "fan_out",
    "pick_audio",
    "choose_voice",
    "run_acquisition",
    "run_refinement",
    "partition_and_emit",
    "run_evaluation",
    "PartitionResult",
    "empty_positives_warning",
]


def empty_positives_warning(round_index: int) -> str:
    return f"round {round_index}: no positive samples, update skipped"


def choose_voice(seed: int, sample_id: str, voice_pool: Sequence[str]) -> str:
    """Deterministic, order-independent voice pick.

    The RNG stream is keyed by sha256("{seed}|{sample_id}|voice"), so a
    sample keeps its voice no matter which other samples are present.
    Reproduce externally as:

        key = sha256(f"{seed}|{sample_id}|voice".encode()).digest()
        random.Random(int.from_bytes(key, "big")).randrange(len(pool))
    """
    if not voice_pool:
        raise ValueError("voice_pool must be non-empty")
    key = hashlib.sha256(f"{seed}|{sample_id}|voice".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(key, "big"))
    return voice_pool[rng.randrange(len(voice_pool))]


def fan_out(
    what: str,
    samples: Sequence[Sample],
    make_task: Callable[[Sample], Callable[[], Any]],
    *,
    max_in_flight: int,
    budget: float,
) -> List[Tuple[Sample, Any]]:
    """Run one task per sample, once each, and keep the survivors.

    Every task is made before any runs. Each failure is logged with its
    sample id and dropped. When the failed share is over `budget`, raise
    FailureBudgetExceeded rather than let the loss bias what is computed
    downstream; an empty batch never raises. The phases allow
    DEFAULT_FAILURE_BUDGET; a standalone command allows 0.0, so one
    failed sample fails it. Returns (sample, value) pairs in input order.
    """
    samples = list(samples)
    # looked up in this module's globals, where perfbench's tracer wraps it
    results = run_batch([make_task(s) for s in samples], max_in_flight=max_in_flight)
    survivors = []
    for sample, result in zip(samples, results):
        if result.ok:
            survivors.append((sample, result.value))
        else:
            log.warning("%s failed for %s: %s", what, sample.id, result.error)
    failed = len(samples) - len(survivors)
    if samples and failed / len(samples) > budget:
        raise FailureBudgetExceeded(what, failed, len(samples), budget)
    return survivors


def run_acquisition(
    samples: Sequence[Sample],
    voice_pool: Sequence[str],
    config: EvolutionConfig,
    tts,
    max_in_flight: int,
) -> List[Sample]:
    """Synthesize speech for every sample; returns enriched samples.

    When authentic audio exists its duration is passed as the synthesis
    target so the clip stays aligned with the original. Clips over the
    duration ceiling come back flagged degraded rather than dropped;
    hard synthesis failures are dropped, subject to the failure budget.
    """
    if not voice_pool:
        raise ValueError("voice_pool must be non-empty")

    def make_task(sample: Sample) -> Callable[[], Sample]:
        voice = choose_voice(config.seed, sample.id, voice_pool)
        target = (
            sample.authentic_audio.duration_s
            if sample.authentic_audio is not None
            else None
        )

        def work() -> Sample:
            try:
                audio = tts.synthesize(sample.text, voice, target_duration_s=target)
            except DurationOverrun as exc:
                return sample.with_synthetic_audio(exc.audio, degraded=True)
            return sample.with_synthetic_audio(audio)

        return work

    acquired = fan_out("synthesis", samples, make_task, max_in_flight=max_in_flight,
                       budget=DEFAULT_FAILURE_BUDGET)
    return [out for _, out in acquired]


def pick_audio(sample: Sample, source: SpeechSource) -> Tuple[AudioRef, SpeechUsed]:
    """The sample's audio in `source`'s order of preference, and which it is."""
    if source is SpeechSource.PREFER_AUTHENTIC:
        order = (
            (sample.authentic_audio, SpeechUsed.AUTHENTIC),
            (sample.synthetic_audio, SpeechUsed.SYNTHETIC),
        )
    else:
        order = (
            (sample.synthetic_audio, SpeechUsed.SYNTHETIC),
            (sample.authentic_audio, SpeechUsed.AUTHENTIC),
        )
    for audio, used in order:
        if audio is not None:
            return audio, used
    raise MissingAudio(f"sample {sample.id} has no usable audio")


def run_refinement(
    samples: Sequence[Sample],
    config: EvolutionConfig,
    translate,
    score,
    max_in_flight: int,
) -> List[Sample]:
    """Score text-only vs speech-guided translation for each sample, and
    return the samples that carry their verdict.

    Degraded samples are skipped (their audio is unusable by contract)
    and logged. Everything else must carry audio per config.speech_source.
    """
    active: List[Sample] = []
    skipped = 0
    for sample in samples:
        if sample.degraded:
            skipped += 1
            log.info("skipping degraded sample %s", sample.id)
            continue
        active.append(sample)
    if skipped:
        log.warning("refinement skipped %d degraded sample(s)", skipped)

    def make_task(sample: Sample) -> Callable[[], Sample]:
        audio, used = pick_audio(sample, config.speech_source)

        def work() -> Sample:
            text_only = translate.translate("mt", sample.text, None, sample.direction)
            s1 = score.score(sample.text, text_only.text, sample.reference)
            guided = translate.translate("smt", sample.text, audio, sample.direction)
            s2 = score.score(sample.text, guided.text, sample.reference)
            return replace(sample, verdict=Verdict(used, s1, s2))

        return work

    scored = fan_out("refinement", active, make_task, max_in_flight=max_in_flight,
                     budget=DEFAULT_FAILURE_BUDGET)
    return [item for _, item in scored]


@dataclass(frozen=True)
class PartitionResult:
    written: Dict[str, bytes]  # {file name: bytes} of the three files
    jobspec: Optional[curriculum.JobSpec]
    n_positive: int
    n_negative: int
    warning: Optional[str] = None


def partition_and_emit(
    scored: Sequence[Sample],
    round_index: int,
    out_dir: str,
    workspace: str,
) -> PartitionResult:
    """Split scored samples by label and emit the continual-training spec.

    Both manifests and `jobspec.json` are always written so the journal
    layout is uniform. Only positives feed the JobSpec; with zero
    positives there is nothing to train on, so the spec is null and the
    result carries a warning instead of failing the round.

    The JobSpec stores the positives path relative to `workspace`,
    keeping journals relocatable.
    """
    scored = list(scored)
    if not scored:
        raise EmptyInput("cannot partition an empty scored list")
    out = Path(out_dir)
    positives = [s for s in scored if s.verdict.label is Label.POSITIVE]
    negatives = [s for s in scored if s.verdict.label is Label.NEGATIVE]

    written = {}
    for name, rows in (("positives.jsonl", positives), ("negatives.jsonl", negatives)):
        written[name] = write_jsonl(out / name, (s.to_json() for s in rows))

    if positives:
        dataset_ref = os.path.relpath(out / "positives.jsonl", workspace).replace(os.sep, "/")
        jobspec = curriculum.continual_spec(dataset_ref, root=workspace)
        warning = None
    else:
        jobspec = None
        warning = empty_positives_warning(round_index)
        log.warning("%s", warning)
    spec = jobspec.to_json() if jobspec is not None else None
    written["jobspec.json"] = write_json(out / "jobspec.json", spec)

    return PartitionResult(
        written=written,
        jobspec=jobspec,
        n_positive=len(positives),
        n_negative=len(negatives),
        warning=warning,
    )


def run_evaluation(
    eval_samples: Sequence[Sample],
    config: EvolutionConfig,
    tts,
    translate,
    score,
    max_in_flight: int,
) -> Tuple[float, dict]:
    """Mean speech-guided translation score over the eval set, and the
    mean per direction: (mean, {"src-tgt": mean, ...}).

    All eval speech uses the single fixed voice so that round-over-round
    deltas measure the model, not voice variation. Samples that fail
    within the failure budget are left out of every mean.
    """
    eval_samples = list(eval_samples)
    if not eval_samples:
        raise EmptyEvalSet("evaluation requires a non-empty eval set")
    if not config.fixed_eval_voice:
        raise ValueError("config.fixed_eval_voice must be set for evaluation")
    voice = config.fixed_eval_voice

    def make_task(sample: Sample) -> Callable[[], float]:
        def work() -> float:
            audio = tts.synthesize(sample.text, voice)
            guided = translate.translate("smt", sample.text, audio, sample.direction)
            return score.score(sample.text, guided.text, sample.reference)

        return work

    scored = fan_out("evaluation", eval_samples, make_task,
                     max_in_flight=max_in_flight, budget=DEFAULT_FAILURE_BUDGET)
    values = [value for _, value in scored]
    per_direction: dict = {}
    for sample, value in scored:
        per_direction.setdefault(sample.direction, []).append(value)
    breakdown = {
        f"{src}-{tgt}": sum(vals) / len(vals)
        for (src, tgt), vals in sorted(per_direction.items())
    }
    return sum(values) / len(values), breakdown
