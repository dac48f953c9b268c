"""Self-evolution loop: labeling, phases, convergence, resume."""

import builtins
import dataclasses
import hashlib
import json
import os
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoloop.backends.cache import ContentCache
from evoloop.backends.clients import ScoreClient, TranslateClient, TtsClient
from evoloop.backends.mock import (
    ContrastTranslator,
    LookupTranslator,
    MockScorer,
    MockTts,
    ScheduledScorer,
)
from evoloop.corpus import AudioOrigin, AudioRef, Sample, load_manifest
from evoloop.errors import (
    EmptyEvalSet,
    EmptyInput,
    FailureBudgetExceeded,
    MissingAudio,
    PermanentBackendError,
    ResumeStateCorrupt,
    UpdateHookFailed,
)
from evoloop.evolution import (
    Backends,
    EvolutionConfig,
    Label,
    RoundState,
    RoundStatus,
    ScoredSample,
    SpeechSource,
    SpeechUsed,
    check_convergence,
    choose_voice,
    label_for,
    partition_and_emit,
    run_acquisition,
    run_evaluation,
    run_loop,
    run_refinement,
)
from evoloop.evolution import loop as loop_mod
from evoloop.evolution.journal import Journal
from evoloop.mockstack import build_mock_stack

from helpers import EchoTranslator

POOL = ["voice-a", "voice-b", "voice-c", "voice-d", "voice-e"]
# the phase tests below run their calls on several threads, as an HTTP stack does
WIDTH = 8


def make_samples(n, src="eng", tgt="khm", reference_equals_text=True):
    samples = []
    for i in range(n):
        text = f"word{i} token{i} item{i} extra{i}"
        ref = text if reference_equals_text else f"ref{i} only{i}"
        samples.append(Sample.build(src, tgt, text, ref))
    return samples


def tts_client(tmp_path, **kw):
    ws = Path(tmp_path)
    return TtsClient(MockTts(**kw), ContentCache(ws / "cache"))


def simple_clients(tmp_path, translator=None, scorer=None):
    ws = Path(tmp_path)
    cache = ContentCache(ws / "cache")
    return (
        TranslateClient(translator or ContrastTranslator(), cache),
        ScoreClient(scorer or MockScorer(), cache),
    )


# --- labeling rule ----------------------------------------------------------

class TestLabelRule:
    def test_strictly_greater_is_positive(self):
        assert label_for(0.850, 0.860) is Label.POSITIVE

    def test_tie_is_negative(self):
        assert label_for(0.850, 0.850) is Label.NEGATIVE

    def test_worse_is_negative(self):
        assert label_for(0.9, 0.1) is Label.NEGATIVE

    def test_law_over_random_pairs(self):
        rng = random.Random(401)
        for _ in range(1000):
            s1 = rng.randint(0, 100) / 100
            s2 = rng.randint(0, 100) / 100
            expected = Label.POSITIVE if s2 > s1 else Label.NEGATIVE
            assert label_for(s1, s2) is expected

    def test_scored_sample_derives_label(self):
        sample = make_samples(1)[0]
        scored = ScoredSample.from_scores(sample, SpeechUsed.SYNTHETIC, 0.5, 0.6)
        assert scored.label is Label.POSITIVE
        assert scored.sample_id == sample.id

    def test_contradictory_label_rejected(self):
        with pytest.raises(ValueError):
            ScoredSample("x", SpeechUsed.SYNTHETIC, s1=0.5, s2=0.6, label=Label.NEGATIVE)
        with pytest.raises(ValueError):
            ScoredSample("x", SpeechUsed.SYNTHETIC, s1=0.6, s2=0.6, label=Label.POSITIVE)

    def test_scores_bounded(self):
        with pytest.raises(ValueError):
            ScoredSample("x", SpeechUsed.SYNTHETIC, s1=-0.1, s2=0.5, label=Label.POSITIVE)
        with pytest.raises(ValueError):
            ScoredSample("x", SpeechUsed.SYNTHETIC, s1=0.5, s2=1.2, label=Label.POSITIVE)

    @pytest.mark.parametrize("key, value", [
        ("s1", True), ("s2", "1"), ("s1", None), ("s2", [0.6]),
    ])
    def test_journaled_row_keeps_json_types(self, key, value):
        sample = make_samples(1)[0]
        row = {"s1": 0.5, "s2": 0.6, "label": "Positive", "speech_used": "Synthetic"}
        assert ScoredSample.from_row(dataclasses.replace(sample, annotations=row)) == \
            ScoredSample.from_scores(sample, SpeechUsed.SYNTHETIC, 0.5, 0.6)
        row[key] = value
        message = (f"scored manifest row for {sample.id} is inconsistent: "
                   f"expected a number, got {value!r}")
        with pytest.raises(ResumeStateCorrupt, match=re.escape(message)):
            ScoredSample.from_row(dataclasses.replace(sample, annotations=row))


# --- voice selection -------------------------------------------------------

class TestChooseVoice:
    def test_single_voice_pool(self):
        for sample in make_samples(10):
            assert choose_voice(7, sample.id, ["only"]) == "only"

    def test_deterministic(self):
        sid = make_samples(1)[0].id
        picks = {choose_voice(3, sid, POOL) for _ in range(10)}
        assert len(picks) == 1

    def test_matches_documented_formula(self):
        # independent recomputation of the per-sample RNG
        for sample in make_samples(50):
            key = hashlib.sha256(f"11|{sample.id}|voice".encode("utf-8")).digest()
            rng = random.Random(int.from_bytes(key, "big"))
            expected = POOL[rng.randrange(len(POOL))]
            assert choose_voice(11, sample.id, POOL) == expected

    def test_seed_changes_assignments(self):
        ids = [s.id for s in make_samples(50)]
        a = [choose_voice(1, i, POOL) for i in ids]
        b = [choose_voice(2, i, POOL) for i in ids]
        assert a != b

    def test_spread_over_pool(self):
        ids = [s.id for s in make_samples(100)]
        used = {choose_voice(0, i, POOL) for i in ids}
        assert used == set(POOL)

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            choose_voice(0, "abc", [])


# --- acquisition -------------------------------------------------------------

class TestAcquisition:
    def test_populates_synthetic_audio(self, tmp_path):
        config = EvolutionConfig(seed=5)
        samples = make_samples(8)
        out = run_acquisition(samples, POOL, config, tts_client(tmp_path), max_in_flight=WIDTH)
        assert len(out) == 8
        for before, after in zip(samples, out):
            audio = after.synthetic_audio
            assert audio is not None
            assert audio.origin is AudioOrigin.SYNTHETIC
            assert audio.voice_id == choose_voice(5, before.id, POOL)
            assert not after.degraded

    def test_voice_assignment_order_independent(self, tmp_path):
        config = EvolutionConfig(seed=5)
        samples = make_samples(12)
        forward = run_acquisition(samples, POOL, config, tts_client(tmp_path), max_in_flight=WIDTH)
        backward = run_acquisition(
            samples[::-1], POOL, config, tts_client(tmp_path), max_in_flight=WIDTH
        )
        by_id = {s.id: s.synthetic_audio.voice_id for s in backward}
        for s in forward:
            assert by_id[s.id] == s.synthetic_audio.voice_id

    def test_two_runs_byte_identical_manifests(self, tmp_path):
        from evoloop.corpus import save_manifest

        config = EvolutionConfig(seed=9)
        samples = make_samples(10)
        a = run_acquisition(samples, POOL, config, tts_client(tmp_path / "a"), max_in_flight=WIDTH)
        b = run_acquisition(samples, POOL, config, tts_client(tmp_path / "b"), max_in_flight=WIDTH)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_manifest(a, pa)
        save_manifest(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_authentic_duration_becomes_target(self, tmp_path):
        config = EvolutionConfig(seed=1)
        base = make_samples(1)[0]
        authentic = AudioRef("audio/real.wav", 4.2, 16000, AudioOrigin.AUTHENTIC)
        sample = Sample(**{**base.__dict__, "authentic_audio": authentic})
        (out,) = run_acquisition([sample], POOL, config, tts_client(tmp_path), max_in_flight=WIDTH)
        # mock duration equals the requested target
        assert out.synthetic_audio.duration_s == pytest.approx(4.2)

    def test_overrun_marks_degraded_not_dropped(self, tmp_path):
        config = EvolutionConfig(seed=1)
        base = make_samples(1)[0]
        long_authentic = AudioRef("audio/long.wav", 31.0, 16000, AudioOrigin.AUTHENTIC)
        sample = Sample(**{**base.__dict__, "authentic_audio": long_authentic})
        (out,) = run_acquisition([sample], POOL, config, tts_client(tmp_path), max_in_flight=WIDTH)
        assert out.degraded
        assert out.synthetic_audio.duration_s == pytest.approx(31.0)

    def test_hard_failures_hit_budget(self, tmp_path):
        config = EvolutionConfig(seed=3)
        client = tts_client(tmp_path, known_voices=frozenset(["voice-a"]))
        samples = make_samples(20)
        with pytest.raises(FailureBudgetExceeded):
            run_acquisition(samples, POOL, config, client, max_in_flight=WIDTH)

    def test_empty_pool_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_acquisition(
                make_samples(1), [], EvolutionConfig(), tts_client(tmp_path), max_in_flight=WIDTH
            )

    def test_empty_samples_ok(self, tmp_path):
        assert run_acquisition(
            [], POOL, EvolutionConfig(), tts_client(tmp_path), max_in_flight=WIDTH
        ) == []


# --- refinement ---------------------------------------------------------------

def acquire(tmp_path, samples, seed=5):
    return run_acquisition(
        samples, POOL, EvolutionConfig(seed=seed), tts_client(tmp_path), max_in_flight=WIDTH
    )


class TestRefinement:
    def test_restored_token_scores_positive(self, tmp_path):
        # text-only mode drops "gamma"; speech-guided mode echoes it back.
        # F1("alpha beta", "alpha beta gamma") = 0.8 exactly, F1(echo) = 1.0.
        sample = Sample.build("eng", "khm", "alpha beta gamma", "alpha beta gamma")
        acquired = acquire(tmp_path, [sample])
        translate, score = simple_clients(tmp_path)
        (scored,) = run_refinement(
            acquired, EvolutionConfig(), translate, score, max_in_flight=WIDTH
        )
        assert scored.s1 == pytest.approx(0.8)
        assert scored.s2 == pytest.approx(1.0)
        assert scored.label is Label.POSITIVE

    def test_tie_labels_negative(self, tmp_path):
        sample = Sample.build("eng", "khm", "alpha beta gamma", "alpha beta gamma")
        acquired = acquire(tmp_path, [sample])
        translate, score = simple_clients(tmp_path, translator=EchoTranslator())
        (scored,) = run_refinement(
            acquired, EvolutionConfig(), translate, score, max_in_flight=WIDTH
        )
        assert scored.s1 == scored.s2
        assert scored.label is Label.NEGATIVE

    def test_degraded_skipped(self, tmp_path):
        samples = make_samples(3)
        acquired = acquire(tmp_path, samples)
        acquired[1] = acquired[1].with_synthetic_audio(
            acquired[1].synthetic_audio, degraded=True
        )
        translate, score = simple_clients(tmp_path)
        scored = run_refinement(acquired, EvolutionConfig(), translate, score, max_in_flight=WIDTH)
        assert [s.sample_id for s in scored] == [acquired[0].id, acquired[2].id]

    def test_missing_audio(self, tmp_path):
        translate, score = simple_clients(tmp_path)
        with pytest.raises(MissingAudio):
            run_refinement(
                make_samples(1), EvolutionConfig(), translate, score, max_in_flight=WIDTH
            )

    def test_speech_source_selection(self, tmp_path):
        base = make_samples(1)[0]
        synthetic = AudioRef("audio/s.wav", 2.0, 16000, AudioOrigin.SYNTHETIC, "voice-a")
        authentic = AudioRef("audio/a.wav", 2.0, 16000, AudioOrigin.AUTHENTIC)
        both = Sample(**{
            **base.__dict__,
            "authentic_audio": authentic,
            "synthetic_audio": synthetic,
        })
        translate, score = simple_clients(tmp_path)

        (scored,) = run_refinement(
            [both], EvolutionConfig(speech_source=SpeechSource.PREFER_AUTHENTIC),
            translate, score,
            max_in_flight=WIDTH,
        )
        assert scored.speech_used is SpeechUsed.AUTHENTIC
        (scored,) = run_refinement(
            [both], EvolutionConfig(speech_source=SpeechSource.PREFER_SYNTHETIC),
            translate, score,
            max_in_flight=WIDTH,
        )
        assert scored.speech_used is SpeechUsed.SYNTHETIC

    def test_prefer_authentic_falls_back_to_synthetic(self, tmp_path):
        acquired = acquire(tmp_path, make_samples(1))
        translate, score = simple_clients(tmp_path)
        (scored,) = run_refinement(
            acquired, EvolutionConfig(speech_source=SpeechSource.PREFER_AUTHENTIC),
            translate, score,
            max_in_flight=WIDTH,
        )
        assert scored.speech_used is SpeechUsed.SYNTHETIC

    def test_deterministic(self, tmp_path):
        acquired = acquire(tmp_path, make_samples(6))
        translate, score = simple_clients(tmp_path)
        a = run_refinement(acquired, EvolutionConfig(), translate, score, max_in_flight=WIDTH)
        b = run_refinement(acquired, EvolutionConfig(), translate, score, max_in_flight=WIDTH)
        assert a == b


# --- partition ---------------------------------------------------------------

def synthetic_scored(pairs, start=0):
    """ScoredSamples with given (s1, s2), texts unique per index."""
    out = []
    for i, (s1, s2) in enumerate(pairs, start=start):
        sample = Sample.build("eng", "lao", f"text number {i}", f"ref number {i}")
        out.append(ScoredSample.from_scores(sample, SpeechUsed.SYNTHETIC, s1, s2))
    return out


class TestPartition:
    def test_counts_and_membership(self, tmp_path):
        scored = synthetic_scored([(0.2, 0.5), (0.5, 0.2), (0.4, 0.4), (0.1, 0.9)])
        out = tmp_path / "r1"
        result = partition_and_emit(scored, 1, str(out), workspace=str(tmp_path))
        assert (result.n_positive, result.n_negative) == (2, 2)
        assert result.written == {
            name: (out / name).read_bytes()
            for name in ("positives.jsonl", "negatives.jsonl", "jobspec.json")
        }
        pos = load_manifest(out / "positives.jsonl", strict=True)
        neg = load_manifest(out / "negatives.jsonl", strict=True)
        assert {s.id for s in pos} == {scored[0].sample_id, scored[3].sample_id}
        assert {s.id for s in neg} == {scored[1].sample_id, scored[2].sample_id}
        assert result.jobspec is not None
        assert list(result.jobspec.datasets) == ["r1/positives.jsonl"]

    def test_partition_law_random(self, tmp_path):
        rng = random.Random(77)
        pairs = [(rng.randint(0, 64) / 64, rng.randint(0, 64) / 64) for _ in range(200)]
        scored = synthetic_scored(pairs)
        partition_and_emit(scored, 2, str(tmp_path / "r2"), workspace=str(tmp_path))
        pos_ids = {s.id for s in load_manifest(tmp_path / "r2" / "positives.jsonl")}
        neg_ids = {s.id for s in load_manifest(tmp_path / "r2" / "negatives.jsonl")}
        assert pos_ids.isdisjoint(neg_ids)
        assert pos_ids | neg_ids == {s.sample_id for s in scored}
        for item in scored:
            assert (item.sample_id in pos_ids) == (item.s2 > item.s1)

    def test_manifest_rows_carry_scores(self, tmp_path):
        scored = synthetic_scored([(0.25, 0.75)])
        result = partition_and_emit(scored, 1, str(tmp_path / "r1"), workspace=str(tmp_path))
        row = json.loads(result.written["positives.jsonl"].decode().strip())
        assert row["s1"] == 0.25 and row["s2"] == 0.75
        assert row["label"] == "Positive"
        assert row["speech_used"] == "Synthetic"
        assert row["text"] == "text number 0"

    def test_all_negative_yields_null_jobspec(self, tmp_path):
        scored = synthetic_scored([(0.5, 0.5), (0.9, 0.1)])
        result = partition_and_emit(scored, 3, str(tmp_path / "r3"), workspace=str(tmp_path))
        assert result.jobspec is None
        assert result.warning and "no positive samples" in result.warning
        assert (tmp_path / "r3" / "positives.jsonl").read_text() == ""
        assert len((tmp_path / "r3" / "negatives.jsonl").read_text().splitlines()) == 2

    def test_empty_scored_rejected(self, tmp_path):
        with pytest.raises(EmptyInput):
            partition_and_emit([], 1, str(tmp_path), workspace=str(tmp_path))

    def test_workspace_relative_jobspec_path(self, tmp_path):
        scored = synthetic_scored([(0.1, 0.2)])
        out = tmp_path / "rounds" / "4"
        result = partition_and_emit(scored, 4, str(out), workspace=str(tmp_path))
        assert list(result.jobspec.datasets) == ["rounds/4/positives.jsonl"]

    def test_identical_input_identical_manifests_across_rounds(self, tmp_path):
        scored = synthetic_scored([(0.2, 0.6), (0.6, 0.2)])
        for k in (1, 2):
            partition_and_emit(scored, k, str(tmp_path / f"r{k}"), workspace=str(tmp_path))
        for name in ("positives.jsonl", "negatives.jsonl"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_rank_invariance(self, tmp_path):
        rng = random.Random(4242)
        pairs = [(rng.randint(0, 64) / 64, rng.randint(0, 64) / 64) for _ in range(60)]
        scored = synthetic_scored(pairs)
        base = partition_and_emit(scored, 1, str(tmp_path / "base"), workspace=str(tmp_path))
        base_pos = [s.id for s in load_manifest(tmp_path / "base" / "positives.jsonl")]
        base_neg = [s.id for s in load_manifest(tmp_path / "base" / "negatives.jsonl")]

        for trial in range(20):
            power = rng.uniform(0.25, 3.0)
            shift = rng.uniform(0.0, 2.0)

            def transform(x, p=power, c=shift):
                # strictly increasing [0,1] -> [0,1]
                return (x ** p + c) / (1.0 + c)

            mapped = []
            for item, (s1, s2) in zip(scored, pairs):
                mapped.append(
                    ScoredSample.from_scores(
                        item.sample, item.speech_used, transform(s1), transform(s2)
                    )
                )
            for before, after in zip(scored, mapped):
                assert after.label is before.label
            out = partition_and_emit(mapped, 1, str(tmp_path / f"t{trial}"),
                                     workspace=str(tmp_path))
            out_dir = tmp_path / f"t{trial}"
            assert [s.id for s in load_manifest(out_dir / "positives.jsonl")] == base_pos
            assert [s.id for s in load_manifest(out_dir / "negatives.jsonl")] == base_neg
            assert (out.jobspec is None) == (base.jobspec is None)


# --- evaluation ----------------------------------------------------------------

class RecordingTts:
    """Delegates to the real mock but keeps every payload."""

    def __init__(self, inner):
        self.inner = inner
        self.payloads = []

    def tts(self, payload):
        self.payloads.append(dict(payload))
        return self.inner.tts(payload)


class TestEvaluation:
    def test_constant_scorer_mean(self, tmp_path):
        samples = make_samples(5)
        lookup = LookupTranslator({("smt", s.text): s.reference for s in samples})
        scorer = ScheduledScorer([0.8], version_provider=lambda: 0)
        cache = ContentCache(tmp_path / "cache")
        score, by_direction = run_evaluation(
            samples,
            EvolutionConfig(fixed_eval_voice="narrator"),
            TtsClient(MockTts(), cache),
            TranslateClient(lookup, cache),
            ScoreClient(scorer, cache),
            max_in_flight=WIDTH,
        )
        assert score == pytest.approx(0.8)
        assert by_direction == {"eng-khm": pytest.approx(0.8)}

    def test_mean_matches_brute_force(self, tmp_path):
        from evoloop.backends.mock import token_f1

        # six directions, reference sometimes echoes and sometimes not
        samples = []
        for i, tgt in enumerate(["khm", "lao", "mya", "khm", "lao", "mya"]):
            text = f"source text {i} with body"
            ref = text if i % 2 == 0 else f"different reference {i}"
            samples.append(Sample.build("eng", tgt, text, ref))
        cache = ContentCache(tmp_path / "cache")
        score, _ = run_evaluation(
            samples,
            EvolutionConfig(fixed_eval_voice="narrator"),
            TtsClient(MockTts(), cache),
            TranslateClient(EchoTranslator(), cache),
            ScoreClient(MockScorer(), cache),
            max_in_flight=WIDTH,
        )
        expected = sum(token_f1(s.text, s.reference) for s in samples) / len(samples)
        assert score == pytest.approx(expected, abs=1e-12)

    def test_fixed_voice_used_everywhere(self, tmp_path):
        samples = make_samples(4)
        authentic = AudioRef("audio/a.wav", 3.0, 16000, AudioOrigin.AUTHENTIC)
        samples[0] = Sample(**{**samples[0].__dict__, "authentic_audio": authentic})
        recorder = RecordingTts(MockTts())
        cache = ContentCache(tmp_path / "cache")
        run_evaluation(
            samples,
            EvolutionConfig(fixed_eval_voice="narrator"),
            TtsClient(recorder, cache),
            TranslateClient(EchoTranslator(), cache),
            ScoreClient(MockScorer(), cache),
            max_in_flight=WIDTH,
        )
        assert len(recorder.payloads) == 4
        for payload in recorder.payloads:
            assert payload["voice_id"] == "narrator"
            # eval speech is fresh reference audio, never duration-matched
            assert "target_duration_s" not in payload

    def test_empty_eval_set(self, tmp_path):
        cache = ContentCache(tmp_path / "cache")
        with pytest.raises(EmptyEvalSet):
            run_evaluation(
                [], EvolutionConfig(fixed_eval_voice="n"),
                TtsClient(MockTts(), cache),
                TranslateClient(EchoTranslator(), cache),
                ScoreClient(MockScorer(), cache),
                max_in_flight=WIDTH,
            )

    def test_missing_fixed_voice(self, tmp_path):
        cache = ContentCache(tmp_path / "cache")
        with pytest.raises(ValueError):
            run_evaluation(
                make_samples(1), EvolutionConfig(),
                TtsClient(MockTts(), cache),
                TranslateClient(EchoTranslator(), cache),
                ScoreClient(MockScorer(), cache),
                max_in_flight=WIDTH,
            )


class FailingScorer:
    """Token-F1 scorer that fails permanently for the given source texts."""

    def __init__(self, sources):
        self.inner = MockScorer()
        self.sources = frozenset(sources)

    def score(self, payload):
        if payload["source"] in self.sources:
            raise PermanentBackendError(422, "unscorable", payload["source"])
        return self.inner.score(payload)


class TestFailuresWithinBudget:
    """One permanent failure in 20 samples is exactly the 5% budget."""

    def test_refinement_drops_the_failed_sample(self, tmp_path, caplog):
        acquired = acquire(tmp_path, make_samples(20))
        failed = acquired[7]
        translate, _ = simple_clients(tmp_path)
        score = ScoreClient(FailingScorer([failed.text]), ContentCache(tmp_path / "c2"))
        scored = run_refinement(acquired, EvolutionConfig(), translate, score, max_in_flight=WIDTH)
        assert [s.sample_id for s in scored] == [s.id for s in acquired if s is not failed]
        assert f"refinement failed for {failed.id}" in caplog.text

    def test_refinement_second_failure_exceeds_budget(self, tmp_path):
        acquired = acquire(tmp_path, make_samples(20))
        translate, _ = simple_clients(tmp_path)
        scorer = FailingScorer([acquired[3].text, acquired[15].text])
        score = ScoreClient(scorer, ContentCache(tmp_path / "c2"))
        with pytest.raises(FailureBudgetExceeded):
            run_refinement(acquired, EvolutionConfig(), translate, score, max_in_flight=WIDTH)

    def _eval_samples(self):
        samples = []
        for i in range(20):
            tgt = "khm" if i % 2 == 0 else "lao"
            text = f"source text {i} with body"
            ref = text if i % 3 == 0 else f"source reference {i} with tail"
            samples.append(Sample.build("eng", tgt, text, ref))
        return samples

    def _evaluate(self, tmp_path, samples, failing):
        cache = ContentCache(tmp_path / "cache")
        return run_evaluation(
            samples,
            EvolutionConfig(fixed_eval_voice="narrator"),
            TtsClient(MockTts(), cache),
            TranslateClient(EchoTranslator(), cache),
            ScoreClient(FailingScorer(failing), cache),
            max_in_flight=WIDTH,
        )

    def test_evaluation_means_cover_only_survivors(self, tmp_path, caplog):
        from evoloop.backends.mock import token_f1

        samples = self._eval_samples()
        failed = samples[4]
        mean, by_direction = self._evaluate(tmp_path, samples, [failed.text])
        survivors = [s for s in samples if s is not failed]
        expected = [token_f1(s.text, s.reference) for s in survivors]
        assert mean == pytest.approx(sum(expected) / len(expected), abs=1e-12)
        for key, tgt in (("eng-khm", "khm"), ("eng-lao", "lao")):
            values = [token_f1(s.text, s.reference) for s in survivors if s.tgt_lang == tgt]
            assert by_direction[key] == pytest.approx(sum(values) / len(values), abs=1e-12)
        assert f"evaluation failed for {failed.id}" in caplog.text

    def test_evaluation_second_failure_exceeds_budget(self, tmp_path):
        samples = self._eval_samples()
        with pytest.raises(FailureBudgetExceeded):
            self._evaluate(tmp_path, samples, [samples[0].text, samples[19].text])


# --- convergence rule ------------------------------------------------------------

def states_from_deltas(deltas):
    history = []
    for i, delta in enumerate(deltas, start=1):
        history.append(
            RoundState(
                round_index=i,
                acquisition_manifest=f"rounds/{i}/acquisition.jsonl",
                positives_manifest=f"rounds/{i}/positives.jsonl",
                negatives_manifest=f"rounds/{i}/negatives.jsonl",
                n_positive=1,
                n_negative=1,
                eval_score=0.5,
                delta_vs_best=delta,
                status=RoundStatus.IMPROVED,
            )
        )
    return history


# --- state.json --------------------------------------------------------------

round_states = st.builds(
    RoundState,
    round_index=st.integers(min_value=1, max_value=10**6),
    acquisition_manifest=st.text(),
    positives_manifest=st.text(),
    negatives_manifest=st.text(),
    n_positive=st.integers(min_value=0, max_value=10**6),
    n_negative=st.integers(min_value=0, max_value=10**6),
    eval_score=st.floats(min_value=0.0, max_value=1.0),
    delta_vs_best=st.floats(allow_nan=False, allow_infinity=False),
    status=st.sampled_from(RoundStatus),
    eval_by_direction=st.dictionaries(st.text(), st.floats(min_value=0.0, max_value=1.0)),
    warnings=st.lists(st.text()).map(tuple),
)

STATE_JSON = states_from_deltas([0.25])[0].to_json() | {
    "eval_by_direction": {"eng-lao": 0.5}, "warnings": ["skipped"]}


class TestRoundStateJson:
    @settings(max_examples=200, deadline=None)
    @given(round_states)
    def test_round_trip(self, state):
        assert RoundState.from_json(json.loads(json.dumps(state.to_json()))) == state

    def test_warnings_are_written_only_when_there_are_some(self):
        state = RoundState.from_json({k: v for k, v in STATE_JSON.items() if k != "warnings"})
        assert state.warnings == ()
        assert "warnings" not in state.to_json()
        assert RoundState.from_json(STATE_JSON).to_json() == STATE_JSON

    @pytest.mark.parametrize("key", [k for k in STATE_JSON if k != "warnings"])
    def test_missing_key_is_refused_by_name(self, key):
        with pytest.raises(ValueError) as err:
            RoundState.from_json({k: v for k, v in STATE_JSON.items() if k != key})
        assert str(err.value) == f"lacks {key!r}"

    @pytest.mark.parametrize("key, value, message", [
        ("round_index", True, "expected an integer, got True"),
        ("round_index", 1.0, "expected an integer, got 1.0"),
        ("acquisition_manifest", 1, "expected a string, got 1"),
        ("positives_manifest", None, "expected a string, got None"),
        ("negatives_manifest", [], "expected a string, got []"),
        ("n_positive", "3", "expected an integer, got '3'"),
        ("n_negative", False, "expected an integer, got False"),
        ("eval_score", "0.5", "expected a number, got '0.5'"),
        ("delta_vs_best", True, "expected a number, got True"),
        ("status", "improved", "'improved' is not a valid RoundStatus"),
        ("eval_by_direction", [], "expected an object, got []"),
        ("eval_by_direction", {"eng-lao": None}, "expected a number, got None"),
        ("warnings", "skipped", "expected a list, got 'skipped'"),
        ("warnings", [1], "expected a string, got 1"),
    ])
    def test_mistyped_key_is_refused_by_name(self, key, value, message):
        with pytest.raises(ValueError) as err:
            RoundState.from_json({**STATE_JSON, key: value})
        assert str(err.value) == f"{key}: {message}"

    def test_state_that_is_not_an_object_is_refused(self):
        with pytest.raises(ValueError, match=r"expected a JSON object, got \[\]"):
            RoundState.from_json([])


class TestConvergence:
    def test_small_last_delta_converges(self):
        config = EvolutionConfig(epsilon=0.005, patience=1, max_rounds=9)
        history = states_from_deltas([0.020, 0.003])
        assert check_convergence(history, config) is RoundStatus.CONVERGED

    def test_max_rounds_reached(self):
        config = EvolutionConfig(epsilon=0.001, patience=1, max_rounds=5)
        history = states_from_deltas([0.010, 0.011, 0.012, 0.013, 0.014])
        assert check_convergence(history, config) is RoundStatus.MAX_ROUNDS

    def test_improved_while_gaining(self):
        config = EvolutionConfig(epsilon=0.001, patience=1, max_rounds=5)
        history = states_from_deltas([0.019])
        assert check_convergence(history, config) is RoundStatus.IMPROVED

    def test_reference_gain_sequence(self):
        config = EvolutionConfig(epsilon=0.001, patience=1, max_rounds=5)
        deltas = [0.019, 0.020, 0.017, 0.0005]
        expected = [
            RoundStatus.IMPROVED,
            RoundStatus.IMPROVED,
            RoundStatus.IMPROVED,
            RoundStatus.CONVERGED,
        ]
        for upto in range(1, 5):
            history = states_from_deltas(deltas[:upto])
            assert check_convergence(history, config) is expected[upto - 1]

    def test_plateau_needs_more_patience(self):
        config = EvolutionConfig(epsilon=0.001, patience=2, max_rounds=9)
        assert (
            check_convergence(states_from_deltas([0.1, 0.0004]), config)
            is RoundStatus.PLATEAU
        )
        assert (
            check_convergence(states_from_deltas([0.1, 0.0004, 0.0003]), config)
            is RoundStatus.CONVERGED
        )

    def test_converged_wins_over_max_rounds(self):
        config = EvolutionConfig(epsilon=0.01, patience=1, max_rounds=2)
        history = states_from_deltas([0.1, 0.0001])
        assert check_convergence(history, config) is RoundStatus.CONVERGED

    def test_empty_history_rejected(self):
        with pytest.raises(EmptyInput):
            check_convergence([], EvolutionConfig())


# --- full loop -------------------------------------------------------------------

SCHEDULE = [0.800, 0.819, 0.839, 0.856, 0.8565]


def loop_fixture(tmp_path, n_train=6, n_eval=4, schedule=SCHEDULE):
    """Mock stack where speech always helps and eval follows `schedule`."""
    train = make_samples(n_train, tgt="khm")
    eval_samples = make_samples(n_eval, tgt="lao")
    outputs = {}
    for s in list(train) + list(eval_samples):
        outputs[("smt", s.text)] = s.reference
        outputs[("mt", s.text)] = " ".join(s.reference.split()[:-1])
    stack = build_mock_stack(
        str(tmp_path), translator=LookupTranslator(outputs), eval_schedule=schedule
    )
    config = EvolutionConfig(
        epsilon=0.001, patience=1, max_rounds=5, seed=13, fixed_eval_voice="narrator"
    )
    return train, eval_samples, config, stack


class KillSwitch(Exception):
    pass


def count_manifest_loads(monkeypatch, ws):
    """Record, in order, the workspace-relative path of every manifest
    run_loop parses."""
    loaded = []

    def counting(path, strict=False, *, data=None):
        loaded.append(Path(path).relative_to(ws).as_posix())
        return load_manifest(path, strict=strict, data=data)

    monkeypatch.setattr(loop_mod, "load_manifest", counting)
    return loaded


# every file a finished loop_fixture run journals: acquisition once, then
# the refinement, update and evaluation files of its four rounds
JOURNALED_FILES = ["rounds/1/acquisition.jsonl"] + [
    f"rounds/{k}/{name}"
    for k in range(1, 5)
    for name in (
        "scored.jsonl", "positives.jsonl", "negatives.jsonl", "jobspec.json", "state.json",
    )
]


class TestRunLoop:
    def test_single_round_cap(self, tmp_path):
        train, eval_samples, config, stack = loop_fixture(tmp_path / "ws")
        config = EvolutionConfig(**{**config.to_json(), "max_rounds": 1})
        history = run_loop(
            train, eval_samples, POOL, config, stack.backends,
            str(tmp_path / "ws"), version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        assert len(history) == 1
        assert history[0].status is RoundStatus.MAX_ROUNDS

    def test_reference_schedule_run(self, tmp_path):
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        history = run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        assert [r.status for r in history] == [
            RoundStatus.IMPROVED,
            RoundStatus.IMPROVED,
            RoundStatus.IMPROVED,
            RoundStatus.CONVERGED,
        ]
        assert [r.eval_score for r in history] == pytest.approx(SCHEDULE[1:])
        expected_deltas = [
            SCHEDULE[i + 1] - SCHEDULE[i] for i in range(4)
        ]
        assert [r.delta_vs_best for r in history] == pytest.approx(expected_deltas)
        assert all(r.n_positive == 6 and r.n_negative == 0 for r in history)
        assert stack.version.value == 4

    def test_monotone_bookkeeping(self, tmp_path):
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        history = run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        ledger = json.loads((ws / "journal.json").read_text())
        best = ledger["baseline"]
        for state in history:
            assert state.delta_vs_best == pytest.approx(state.eval_score - best)
            best = max(best, state.eval_score)

    def test_journal_layout(self, tmp_path):
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        history = run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        for state in history:
            rdir = ws / "rounds" / str(state.round_index)
            for name in (
                "scored.jsonl", "positives.jsonl",
                "negatives.jsonl", "jobspec.json", "state.json",
            ):
                assert (rdir / name).is_file(), name
            # acquisition runs once; every round refines round 1's manifest
            assert (rdir / "acquisition.jsonl").is_file() == (state.round_index == 1)
            assert state.acquisition_manifest == "rounds/1/acquisition.jsonl"
            stored = json.loads((rdir / "state.json").read_text())
            assert RoundState.from_json(stored) == state
        ledger = json.loads((ws / "journal.json").read_text())
        assert ledger["format"] == 2
        assert [k for k, r in ledger["rounds"].items() if "acquisition" in r] == ["1"]

    def test_determinism_byte_identical_journals(self, tmp_path):
        trees = []
        for name in ("one", "two"):
            ws = tmp_path / name
            train, eval_samples, config, stack = loop_fixture(ws)
            run_loop(
                train, eval_samples, POOL, config, stack.backends, str(ws),
                version=stack.version,
                max_in_flight=stack.max_in_flight,
            )
            tree = {}
            for path in sorted((ws / "rounds").rglob("*")):
                if path.is_file():
                    tree[str(path.relative_to(ws))] = path.read_bytes()
            tree["journal.json"] = (ws / "journal.json").read_bytes()
            trees.append(tree)
        assert trees[0] == trees[1]

    def test_kill_and_resume(self, tmp_path, monkeypatch):
        # twin A runs to completion; twin B is killed right after round 2
        # refinement commits, then resumed with a fresh stack.
        ws_a, ws_b = tmp_path / "a", tmp_path / "b"
        train, eval_samples, config, stack_a = loop_fixture(ws_a)
        run_loop(
            train, eval_samples, POOL, config, stack_a.backends, str(ws_a),
            version=stack_a.version,
            max_in_flight=stack_a.max_in_flight,
        )

        train_b, eval_b, config_b, stack_b = loop_fixture(ws_b)

        def kill_after(round_index, phase, source):
            if (round_index, phase, source) == (2, "refinement", "fresh"):
                raise KillSwitch()

        with pytest.raises(KillSwitch):
            run_loop(
                train_b, eval_b, POOL, config_b, stack_b.backends, str(ws_b),
                version=stack_b.version, on_phase=kill_after,
                max_in_flight=stack_b.max_in_flight,
            )

        # fresh clients, same workspace and cache directory
        train_c, eval_c, config_c, stack_c = loop_fixture(ws_b)
        tts_backend = stack_c.tts_backend
        sources = {}
        loaded = count_manifest_loads(monkeypatch, ws_b)
        history = run_loop(
            train_c, eval_c, POOL, config_c, stack_c.backends, str(ws_b),
            version=stack_c.version,
            on_phase=lambda k, phase, source: sources.setdefault((k, phase), source),
            max_in_flight=stack_c.max_in_flight,
        )
        assert [r.status for r in history][-1] is RoundStatus.CONVERGED

        assert sources[(0, "baseline")] == "journal"
        for phase in ("acquisition", "refinement", "update", "evaluation"):
            assert sources[(1, phase)] == "journal"
        assert sources[(2, "refinement")] == "journal"
        assert sources[(2, "update")] == "fresh"
        assert sources[(2, "evaluation")] == "fresh"
        assert sources[(3, "refinement")] == "fresh"
        # journaled rows are parsed only for the fresh steps that use them:
        # round 2's update and evaluation, then round 3's refinement
        assert loaded == ["rounds/2/scored.jsonl", "rounds/1/acquisition.jsonl"]

        # every synthesis request was already cached before the kill
        assert tts_backend.calls.count == 0

        tree = lambda ws: {
            str(p.relative_to(ws)): p.read_bytes()
            for p in sorted(ws.rglob("*"))
            if p.is_file() and "cache" not in p.parts and "audio" not in p.parts
        }
        assert tree(ws_b) == tree(ws_a)

    def test_resume_of_finished_run_replays_everything(self, tmp_path, monkeypatch):
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        first = run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        train2, eval2, config2, stack2 = loop_fixture(ws)
        sources = []
        loaded = count_manifest_loads(monkeypatch, ws)
        second = run_loop(
            train2, eval2, POOL, config2, stack2.backends, str(ws),
            version=stack2.version,
            on_phase=lambda k, phase, source: sources.append(source),
            max_in_flight=stack2.max_in_flight,
        )
        assert second == first
        assert sources and all(source == "journal" for source in sources)
        # no fresh step runs, so no journaled manifest is parsed
        assert loaded == []
        assert stack2.version.value == 4
        assert stack2.tts_backend.calls.count == 0
        assert stack2.score_backend.calls.count == 0

    def test_replay_reads_each_journaled_file_once(self, tmp_path, monkeypatch):
        # the digest check reads each file, and state.json is parsed from
        # those bytes rather than opened again
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        first = run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        train2, eval2, config2, stack2 = loop_fixture(ws)
        loaded = count_manifest_loads(monkeypatch, ws)
        opened = []

        def spying(real_open):
            def spying_open(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)):
                    opened.append(os.fspath(file))
                return real_open(file, *args, **kwargs)
            return spying_open

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", spying(builtins.open))
            patch.setattr(os, "open", spying(os.open))
            second = run_loop(
                train2, eval2, POOL, config2, stack2.backends, str(ws),
                version=stack2.version,
                max_in_flight=stack2.max_in_flight,
            )
        assert second == first
        journaled = Counter(
            rel for rel in (os.path.relpath(path, ws).replace(os.sep, "/") for path in opened)
            if rel in JOURNALED_FILES
        )
        assert journaled == Counter(JOURNALED_FILES)
        assert loaded == []

    def test_resume_parses_the_bytes_it_checked(self, tmp_path, monkeypatch):
        # a state.json rewritten after its digest check is not what the
        # resume returns: the history carries the verified values
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        first = run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        checked = Journal.phase_done
        rewritten = []

        def check_then_rewrite(self, round_index, phase):
            contents = checked(self, round_index, phase)
            if contents is not None and phase == "evaluation":
                path = ws / "rounds" / str(round_index) / "state.json"
                state = json.loads(path.read_text(encoding="utf-8"))
                state["eval_score"] = 0.0
                path.write_text(json.dumps(state), encoding="utf-8")
                rewritten.append(round_index)
            return contents

        monkeypatch.setattr(Journal, "phase_done", check_then_rewrite)
        train2, eval2, config2, stack2 = loop_fixture(ws)
        second = run_loop(
            train2, eval2, POOL, config2, stack2.backends, str(ws),
            version=stack2.version,
            max_in_flight=stack2.max_in_flight,
        )
        assert rewritten == [1, 2, 3, 4]
        assert second == first

    @pytest.mark.parametrize("rel_path", JOURNALED_FILES)
    @pytest.mark.parametrize("replacement", ["deleted", "directory"])
    def test_missing_journal_file_is_corrupt(self, tmp_path, rel_path, replacement):
        # a directory where a journaled file stood counts as a missing file
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        target = ws / rel_path
        target.unlink()
        if replacement == "directory":
            target.mkdir()
        train2, eval2, config2, stack2 = loop_fixture(ws)
        with pytest.raises(ResumeStateCorrupt, match=re.escape(f"journaled file missing: {rel_path}")):
            run_loop(
                train2, eval2, POOL, config2, stack2.backends, str(ws),
                version=stack2.version,
                max_in_flight=stack2.max_in_flight,
            )
        for backend in (stack2.tts_backend, stack2.translate_backend, stack2.score_backend):
            assert backend.calls.count == 0

    @pytest.mark.parametrize("rel_path", JOURNALED_FILES)
    def test_tampered_journal_is_corrupt(self, tmp_path, rel_path):
        # the digest check runs at each step even when the rows are never parsed
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        ledger = json.loads((ws / "journal.json").read_text())
        assert sorted(
            f for phases in ledger["rounds"].values()
            for entry in phases.values() for f in entry["files"]
        ) == sorted(JOURNALED_FILES)
        target = ws / rel_path
        target.write_bytes(target.read_bytes() + b"\n")
        train2, eval2, config2, stack2 = loop_fixture(ws)
        with pytest.raises(ResumeStateCorrupt, match=re.escape(f"journaled file modified: {rel_path}")):
            run_loop(
                train2, eval2, POOL, config2, stack2.backends, str(ws),
                version=stack2.version,
                max_in_flight=stack2.max_in_flight,
            )
        for backend in (stack2.tts_backend, stack2.translate_backend, stack2.score_backend):
            assert backend.calls.count == 0

    def test_a_file_replaced_before_its_record_fails_the_resume(self, tmp_path, monkeypatch):
        # the ledger records the bytes this run wrote, so a second writer's
        # file, put in place between the write and the record, is refused
        ws = tmp_path / "ws"
        write_jsonl = loop_mod.write_jsonl
        replaced = []

        def then_a_second_writer(path, rows):
            data = write_jsonl(path, rows)
            if Path(path) == ws / "rounds" / "1" / "scored.jsonl":
                Path(path).write_bytes(Path(path).read_bytes().splitlines(keepends=True)[0])
                replaced.append(path)
            return data

        train, eval_samples, config, stack = loop_fixture(ws)
        with monkeypatch.context() as patch:
            patch.setattr(loop_mod, "write_jsonl", then_a_second_writer)
            run_loop(
                train, eval_samples, POOL, config, stack.backends, str(ws),
                version=stack.version,
                max_in_flight=stack.max_in_flight,
            )
        assert len(replaced) == 1
        train2, eval2, config2, stack2 = loop_fixture(ws)
        message = "journaled file modified: rounds/1/scored.jsonl"
        with pytest.raises(ResumeStateCorrupt, match=re.escape(message)):
            run_loop(
                train2, eval2, POOL, config2, stack2.backends, str(ws),
                version=stack2.version,
                max_in_flight=stack2.max_in_flight,
            )

    @pytest.mark.parametrize("phase, written", [
        ("update", {"positives.jsonl": b"", "negatives.jsonl": b""}),
        ("refinement", {"scored.jsonl": b"", "state.json": b"{}"}),
        ("evaluation", {"rounds/1/state.json": b"{}"}),
        ("acquisition", {}),
        ("training", {}),
    ], ids=["file-missing", "file-extra", "relative-path", "nothing", "unknown-phase"])
    def test_record_phase_refuses_a_wrong_file_set(self, tmp_path, phase, written):
        jrnl = Journal(str(tmp_path))
        jrnl.open({"config": "c"})
        ledger = (tmp_path / "journal.json").read_bytes()
        with pytest.raises(ValueError, match=phase):
            jrnl.record_phase(1, phase, written)
        assert (tmp_path / "journal.json").read_bytes() == ledger
        assert jrnl.phase_done(1, phase) is None

    def test_config_change_is_corrupt(self, tmp_path):
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        train2, eval2, config2, stack2 = loop_fixture(ws)
        changed = EvolutionConfig(**{**config2.to_json(), "seed": 99})
        with pytest.raises(ResumeStateCorrupt):
            run_loop(
                train2, eval2, POOL, changed, stack2.backends, str(ws),
                version=stack2.version,
                max_in_flight=stack2.max_in_flight,
            )

    def test_unreadable_ledger_is_corrupt(self, tmp_path):
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        (ws / "journal.json").write_text("{broken", encoding="utf-8")
        train2, eval2, config2, stack2 = loop_fixture(ws)
        with pytest.raises(ResumeStateCorrupt):
            run_loop(
                train2, eval2, POOL, config2, stack2.backends, str(ws),
                version=stack2.version,
                max_in_flight=stack2.max_in_flight,
            )

    def test_ledger_without_format_marker_is_corrupt(self, tmp_path):
        # ledgers written before format 2 carry no marker and journal
        # acquisition in every round; resuming one would mix both layouts
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        ledger = json.loads((ws / "journal.json").read_text())
        del ledger["format"]
        (ws / "journal.json").write_text(json.dumps(ledger), encoding="utf-8")
        train2, eval2, config2, stack2 = loop_fixture(ws)
        with pytest.raises(ResumeStateCorrupt, match="format 1 is not 2"):
            run_loop(
                train2, eval2, POOL, config2, stack2.backends, str(ws),
                version=stack2.version,
                max_in_flight=stack2.max_in_flight,
            )
        assert stack2.tts_backend.calls.count == 0

    def test_callable_hook_sees_every_jobspec(self, tmp_path):
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        seen = []
        history = run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            update_hook=seen.append, version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        assert len(seen) == len(history)
        for k, path in enumerate(seen, start=1):
            assert path.endswith(f"rounds/{k}/jobspec.json")
            spec = json.loads(Path(path).read_text())
            assert spec["stage"] == "ContinualSMT"
            assert spec["datasets"] == [f"rounds/{k}/positives.jsonl"]

    def test_command_hook_runs(self, tmp_path):
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        config = EvolutionConfig(**{**config.to_json(), "max_rounds": 1})
        hook = 'python3 -c "import json,sys; json.load(open(sys.argv[1]))" {jobspec}'
        history = run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            update_hook=hook, version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        assert len(history) == 1

    def test_failing_command_hook_fails_round(self, tmp_path):
        ws = tmp_path / "ws"
        train, eval_samples, config, stack = loop_fixture(ws)
        hook = 'python3 -c "raise SystemExit(3)" {jobspec}'
        with pytest.raises(UpdateHookFailed) as err:
            run_loop(
                train, eval_samples, POOL, config, stack.backends, str(ws),
                update_hook=hook, version=stack.version,
                max_in_flight=stack.max_in_flight,
            )
        assert err.value.returncode == 3
        assert not (ws / "rounds" / "1" / "state.json").exists()

    def test_all_negative_round_still_evaluates(self, tmp_path):
        ws = tmp_path / "ws"
        train = make_samples(4, tgt="mya")
        eval_samples = make_samples(3, tgt="mya")
        stack = build_mock_stack(str(ws), translator=EchoTranslator())
        config = EvolutionConfig(seed=3, fixed_eval_voice="narrator")
        history = run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        state = history[0]
        assert state.n_positive == 0
        assert state.status is RoundStatus.CONVERGED
        assert json.loads((ws / "rounds" / "1" / "jobspec.json").read_text()) is None
        stored = json.loads((ws / "rounds" / "1" / "state.json").read_text())
        assert stored["warnings"] == ["round 1: no positive samples, update skipped"]
        assert stack.version.value == 0

    def test_training_data_purity(self, tmp_path):
        ws = tmp_path / "ws"
        train = make_samples(10, tgt="khm")
        eval_samples = make_samples(3, tgt="lao")
        # half the samples benefit from speech, half are ties
        outputs = {}
        for i, s in enumerate(train):
            outputs[("mt", s.text)] = " ".join(s.text.split()[:-1])
            outputs[("smt", s.text)] = s.reference if i % 2 == 0 else outputs[("mt", s.text)]
        for s in eval_samples:
            outputs[("smt", s.text)] = s.reference
        stack = build_mock_stack(str(ws), translator=LookupTranslator(outputs))
        config = EvolutionConfig(seed=1, max_rounds=2, fixed_eval_voice="narrator")
        history = run_loop(
            train, eval_samples, POOL, config, stack.backends, str(ws),
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
        for state in history:
            rdir = ws / "rounds" / str(state.round_index)
            spec = json.loads((rdir / "jobspec.json").read_text())
            negative_ids = {
                s.id for s in load_manifest(rdir / "negatives.jsonl", strict=True)
            }
            if spec is None:
                continue
            for dataset in spec["datasets"]:
                trained_ids = {s.id for s in load_manifest(ws / dataset, strict=True)}
                assert trained_ids.isdisjoint(negative_ids)

    def test_empty_train_rejected(self, tmp_path):
        ws = tmp_path / "ws"
        _, eval_samples, config, stack = loop_fixture(ws)
        with pytest.raises(EmptyInput):
            run_loop([], eval_samples, POOL, config, stack.backends, str(ws),
                     version=stack.version, max_in_flight=stack.max_in_flight)
