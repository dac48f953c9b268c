"""Corpus BLEU against an independent brute-force oracle and committed goldens."""

import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoloop.errors import EmptyCorpus, LengthMismatch
from evoloop.metrics import corpus_bleu, tokenize_13a
from evoloop.metrics.bleu import ngram_stats

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "bleu"


def oracle_bleu_unsmoothed(hyps, refs):
    """Straight-line reimplementation: Counter-based clipping, no smoothing.

    Deliberately written without the package's statistics code path so the
    two can disagree.
    """
    correct = [0, 0, 0, 0]
    total = [0, 0, 0, 0]
    sys_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        ht = tokenize_13a(hyp.rstrip())
        rt = tokenize_13a(ref.rstrip())
        sys_len += len(ht)
        ref_len += len(rt)
        for n in range(1, 5):
            hgrams = Counter(tuple(ht[i:i + n]) for i in range(len(ht) - n + 1))
            rgrams = Counter(tuple(rt[i:i + n]) for i in range(len(rt) - n + 1))
            total[n - 1] += sum(hgrams.values())
            correct[n - 1] += sum(min(c, rgrams[g]) for g, c in hgrams.items())
    precisions = [correct[i] / total[i] if total[i] else 0.0 for i in range(4)]
    if any(p == 0.0 for p in precisions):
        geo = 0.0
    else:
        geo = math.exp(sum(math.log(p) for p in precisions) / 4)
    if sys_len == 0:
        bp = 0.0
    elif sys_len < ref_len:
        bp = math.exp(1 - ref_len / sys_len)
    else:
        bp = 1.0
    return 100.0 * bp * geo, precisions, bp, sys_len, ref_len


def random_corpus(rng, max_sents=5, max_tokens=8):
    vocab = ["the", "cat", "sat", "on", "mat", "dog", "ran", "big"]
    n = rng.randint(1, max_sents)
    hyps = [" ".join(rng.choice(vocab) for _ in range(rng.randint(0, max_tokens)))
            for _ in range(n)]
    refs = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, max_tokens)))
            for _ in range(n)]
    return hyps, refs


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(4242)
        for _ in range(100):
            hyps, refs = random_corpus(rng)
            want_score, want_prec, want_bp, want_sys, want_ref = \
                oracle_bleu_unsmoothed(hyps, refs)
            got = corpus_bleu(hyps, refs, smoothing="none")
            assert got.sys_len == want_sys
            assert got.ref_len == want_ref
            assert got.brevity_penalty == pytest.approx(want_bp, abs=1e-12)
            for n in range(4):
                assert got.precisions[n] == pytest.approx(want_prec[n], abs=1e-12)
            assert got.score == pytest.approx(want_score, abs=1e-9)

    def test_hand_worked_clipping_case(self):
        # p1 for "the the the the" vs "the cat sat down": 4 unigrams, "the"
        # clipped to the single reference occurrence -> 1/4
        got = corpus_bleu(["the the the the"], ["the cat sat down"], smoothing="none")
        assert got.precisions[0] == pytest.approx(0.25)
        assert got.correct[0] == 1
        assert got.total[0] == 4
        assert got.score == 0.0  # no bigram match, unsmoothed


class TestGoldenFixtures:
    @pytest.mark.parametrize("name", ["golden20.jsonl", "edge5.jsonl", "smooth4.jsonl"])
    def test_matches_committed_reference_output(self, name):
        with open(FIXTURES / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)[name]
        hyps, refs = [], []
        with open(FIXTURES / name, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                hyps.append(obj["hyp"])
                refs.append(obj["ref"])
        got = corpus_bleu(hyps, refs)  # exp smoothing, 13a: reference defaults
        assert got.score == pytest.approx(expected["score"], abs=0.01)
        assert got.sys_len == expected["sys_len"]
        assert got.ref_len == expected["ref_len"]
        assert got.brevity_penalty == pytest.approx(expected["brevity_penalty"], abs=1e-9)
        for n in range(4):
            assert got.precisions[n] == pytest.approx(expected["precisions"][n], abs=1e-9)

    def test_golden20_has_twenty_pairs(self):
        with open(FIXTURES / "golden20.jsonl", encoding="utf-8") as fh:
            assert sum(1 for line in fh if line.strip()) == 20


class TestInvariants:
    def test_perfect_match_scores_100(self):
        refs = ["The cat sat on the mat.", "A 10-fold rise, honestly!"]
        got = corpus_bleu(list(refs), refs)
        assert got.score == pytest.approx(100.0)
        assert all(p == pytest.approx(1.0) for p in got.precisions)
        assert got.brevity_penalty == 1.0

    def test_score_100_only_for_identical_tokenization(self):
        # differs in raw whitespace but tokenizes identically
        got = corpus_bleu(["a  b c,d e"], ["a b c ,d   e"])
        assert got.score == pytest.approx(100.0)
        got = corpus_bleu(["a b c d e"], ["a b c d f"])
        assert got.score < 100.0

    def test_bounds(self):
        rng = random.Random(77)
        for _ in range(50):
            hyps, refs = random_corpus(rng)
            for smoothing in ("exp", "none"):
                score = corpus_bleu(hyps, refs, smoothing=smoothing).score
                assert 0.0 <= score <= 100.0

    def test_permutation_invariance(self):
        rng = random.Random(88)
        hyps, refs = random_corpus(rng, max_sents=5)
        base = corpus_bleu(hyps, refs)
        for _ in range(10):
            order = list(range(len(hyps)))
            rng.shuffle(order)
            shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
            assert shuffled.score == pytest.approx(base.score, abs=1e-12)
            assert shuffled.correct == base.correct
            assert shuffled.total == base.total

    def test_bp_decreases_as_hypothesis_shortens(self):
        ref = ["one two three four five six seven eight"]
        bps = []
        for k in (8, 6, 4, 2):
            hyp = [" ".join(["one"] * k)]
            bps.append(corpus_bleu(hyp, ref).brevity_penalty)
        assert bps[0] == 1.0
        assert bps[1] > bps[2] > bps[3]

    def test_exp_smoothing_fills_empty_orders(self):
        # unigram matches only; higher orders get halved pseudo-counts
        got = corpus_bleu(["a b c d"], ["b a c d"], smoothing="exp")
        assert got.correct[3] == 0
        assert got.precisions[3] > 0.0
        assert got.score > 0.0
        unsmoothed = corpus_bleu(["a b c d"], ["b a c d"], smoothing="none")
        assert unsmoothed.score == 0.0


class TestNgramStats:
    @pytest.mark.parametrize("hyp, ref, want", [
        ([], [], ([0, 0, 0, 0], [0, 0, 0, 0])),
        (["a"], [], ([0, 0, 0, 0], [1, 0, 0, 0])),
        ([], ["a"], ([0, 0, 0, 0], [0, 0, 0, 0])),
        (["a"], ["a"], ([1, 0, 0, 0], [1, 0, 0, 0])),
    ])
    def test_empty_and_single_token_inputs(self, hyp, ref, want):
        assert ngram_stats(hyp, ref, 4) == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from("abc"), max_size=12),
           st.lists(st.sampled_from("abc"), max_size=12),
           st.integers(1, 6))
    def test_equals_slice_based_oracle(self, hyp, ref, max_order):
        # a three-letter alphabet repeats tokens and n-grams; either side may
        # be empty or shorter than the order
        assert ngram_stats(hyp, ref, max_order) == oracle_ngram_stats(hyp, ref, max_order)


def oracle_ngram_stats(hyp_tokens, ref_tokens, max_order):
    """Reference: one pass per order, each n-gram built by slicing."""
    h_len = len(hyp_tokens)
    r_len = len(ref_tokens)
    correct = [0] * max_order
    total = [0] * max_order
    for n in range(1, max_order + 1):
        h_count = h_len - n + 1
        if h_count <= 0:
            break
        total[n - 1] = h_count
        ref_counts = {}
        for i in range(r_len - n + 1):
            key = tuple(ref_tokens[i:i + n])
            ref_counts[key] = ref_counts.get(key, 0) + 1
        if not ref_counts:
            continue
        hyp_counts = {}
        for i in range(h_count):
            key = tuple(hyp_tokens[i:i + n])
            hyp_counts[key] = hyp_counts.get(key, 0) + 1
        c = 0
        for key, count in hyp_counts.items():
            r = ref_counts.get(key, 0)
            if r:
                c += count if count < r else r
        correct[n - 1] = c
    return correct, total


class TestErrors:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            corpus_bleu(["a"], ["a", "b"])

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_bleu([], [])

    def test_bad_smoothing_name(self):
        with pytest.raises(ValueError):
            corpus_bleu(["a"], ["a"], smoothing="floor")

    def test_bad_tokenizer(self):
        with pytest.raises(ValueError):
            corpus_bleu(["a"], ["a"], tokenizer=123)
