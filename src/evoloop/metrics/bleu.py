"""Corpus BLEU from first principles.

Statistics and smoothing follow the standard WMT scorer: clipped n-gram
matches up to order 4 summed over the corpus, exponential (NIST method 3)
smoothing by default, brevity penalty from total lengths. Precisions are kept
as fractions in [0,1]; the score is reported on the usual 0-100 scale. With
a piece table as the tokenizer this yields spBLEU.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

from ..errors import EmptyCorpus, LengthMismatch
from .spm import PieceTable, sp_segment
from .tokenizer import tokenize_13a

MAX_ORDER = 4
SMOOTHINGS = ("exp", "none")

# log floor returned for zero precisions; drives exp() to underflow, so a
# zero anywhere in the geometric mean zeroes the score rather than crashing
_LOG_ZERO = -9999999999


@dataclass(frozen=True)
class BleuResult:
    score: float  # [0, 100]
    precisions: tuple[float, ...]  # fractions, orders 1..4
    brevity_penalty: float
    sys_len: int
    ref_len: int
    correct: tuple[int, ...]
    total: tuple[int, ...]

    def __str__(self) -> str:
        p = "/".join(f"{x * 100:.1f}" for x in self.precisions)
        return (f"BLEU = {self.score:.2f} {p} "
                f"(BP = {self.brevity_penalty:.3f} "
                f"sys_len = {self.sys_len} ref_len = {self.ref_len})")


def _resolve_tokenizer(tokenizer) -> Callable[[str], list[str]]:
    if tokenizer == "13a":
        return tokenize_13a
    if isinstance(tokenizer, PieceTable):
        table = tokenizer
        # one memo per corpus, so it holds only the words being scored
        memo: dict = {}
        return lambda text: sp_segment(text, table, memo)
    raise ValueError(f"unsupported tokenizer: {tokenizer!r}")


def _ngrams(tokens, max_order):
    """Every n-gram of orders 1..max_order as a tuple, shortest orders first."""
    return chain.from_iterable(
        zip(*[tokens[i:] for i in range(n)]) for n in range(1, max_order + 1))


def ngram_stats(hyp_tokens, ref_tokens, max_order):
    """Clipped n-gram statistics for one sentence pair.

    Returns (correct, total), each a list of length max_order where slot
    n-1 holds the clipped match count / hypothesis n-gram count for order n.
    Each side's n-grams of every order are counted in one Counter pass; an
    n-gram's order is the length of its tuple.
    """
    h_len = len(hyp_tokens)
    correct = [0] * max_order
    total = [max(h_len - n + 1, 0) for n in range(1, max_order + 1)]
    ref_counts = Counter(_ngrams(ref_tokens, max_order))
    for key, count in Counter(_ngrams(hyp_tokens, max_order)).items():
        r = ref_counts.get(key)
        if r:
            correct[len(key) - 1] += count if count < r else r
    return correct, total


def _ln(value: float) -> float:
    if value == 0.0:
        return _LOG_ZERO
    return math.log(value)


def compute_bleu(
    correct: Sequence[int],
    total: Sequence[int],
    sys_len: int,
    ref_len: int,
    smoothing: str = "exp",
) -> BleuResult:
    """Score from sufficient statistics; exposed for re-aggregation."""
    if smoothing not in SMOOTHINGS:
        raise ValueError(f"unsupported smoothing: {smoothing!r}")
    precisions = [0.0] * MAX_ORDER
    smooth_scale = 1.0
    for n in range(MAX_ORDER):
        if total[n] == 0:
            break
        if correct[n] == 0:
            if smoothing == "exp":
                # NIST smoothing: successive empty orders get 1/(2^k * total)
                smooth_scale *= 2.0
                precisions[n] = 1.0 / (smooth_scale * total[n])
        else:
            precisions[n] = correct[n] / total[n]

    if sys_len < ref_len:
        brevity_penalty = math.exp(1 - ref_len / sys_len) if sys_len > 0 else 0.0
    else:
        brevity_penalty = 1.0

    score = 100.0 * brevity_penalty * math.exp(
        sum(_ln(p) for p in precisions) / MAX_ORDER
    )
    return BleuResult(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=brevity_penalty,
        sys_len=sys_len,
        ref_len=ref_len,
        correct=tuple(correct),
        total=tuple(total),
    )


def corpus_bleu(
    hypotheses: Sequence[str],
    references: Sequence[str],
    tokenizer="13a",
    smoothing: str = "exp",
) -> BleuResult:
    """Corpus-level BLEU with one reference per hypothesis.

    tokenizer: "13a" (default) or a PieceTable (spBLEU).
    """
    if len(hypotheses) != len(references):
        raise LengthMismatch(len(hypotheses), len(references))
    if not hypotheses:
        raise EmptyCorpus()
    tok = _resolve_tokenizer(tokenizer)

    correct = [0] * MAX_ORDER
    total = [0] * MAX_ORDER
    sys_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens = tok(hyp.rstrip())
        ref_tokens = tok(ref.rstrip())
        sys_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        pair_correct, pair_total = ngram_stats(hyp_tokens, ref_tokens, MAX_ORDER)
        for n in range(MAX_ORDER):
            correct[n] += pair_correct[n]
            total[n] += pair_total[n]
    return compute_bleu(correct, total, sys_len, ref_len, smoothing=smoothing)


def corpus_spbleu(
    hypotheses: Sequence[str],
    references: Sequence[str],
    table: PieceTable,
    smoothing: str = "exp",
) -> BleuResult:
    return corpus_bleu(hypotheses, references, tokenizer=table, smoothing=smoothing)
