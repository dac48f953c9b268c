"""Expected outputs, computed without the program's code.

Token F1, the BLEU n-gram counter, the round-status rule and the request
counts are written out here from their definitions in docs/formats.md and
the mock semantics, so a fault in the program's own versions shows up as
a mismatch instead of being copied into the expectation.
"""

from __future__ import annotations

import math
from collections import Counter

from inputs import MARKER

REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def token_f1(hypothesis: str, reference: str) -> float:
    """Harmonic mean of precision and recall over whitespace-token multisets."""
    hyp, ref = hypothesis.split(), reference.split()
    if not hyp and not ref:
        return 1.0
    common = Counter(hyp) & Counter(ref)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    return 2.0 * overlap / (len(hyp) + len(ref))


def drop_last(text: str) -> str:
    """The stub translator's text-only output."""
    return " ".join(text.split()[:-1])


def pieces(text: str) -> list:
    """Expected segmentation under the synthetic piece table: one per word."""
    return [MARKER + word for word in text.split(" ")]


def ngrams(tokens, n) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def spbleu(hypotheses, references, max_order: int = 4) -> float:
    """Corpus BLEU over piece tokens with exponential (NIST) smoothing."""
    matches = [0] * max_order
    possible = [0] * max_order
    sys_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h, r = pieces(hyp), pieces(ref)
        sys_len += len(h)
        ref_len += len(r)
        for n in range(1, max_order + 1):
            hc, rc = ngrams(h, n), ngrams(r, n)
            possible[n - 1] += max(len(h) - n + 1, 0)
            matches[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
    log_sum = 0.0
    halvings = 1
    for m, p in zip(matches, possible):
        if p == 0:
            return 0.0
        if m == 0:
            halvings *= 2
            log_sum += math.log(1.0 / (halvings * p))
        else:
            log_sum += math.log(m / p)
    bp = 1.0 if sys_len >= ref_len else math.exp(1.0 - ref_len / sys_len)
    return 100.0 * bp * math.exp(log_sum / max_order)


def round_statuses(baseline: float, evals, epsilon: float, patience: int,
                   max_rounds: int) -> list:
    """Status per round: Converged, then MaxRounds, then Improved, then Plateau.

    Stops after the first Converged or MaxRounds, as the loop does.
    """
    out = []
    best = baseline
    deltas = []
    for k, value in enumerate(evals, start=1):
        deltas.append(value - best)
        best = max(best, value)
        recent = deltas[-patience:]
        if len(deltas) >= patience and max(recent) < epsilon:
            out.append("Converged")
        elif k >= max_rounds:
            out.append("MaxRounds")
        elif deltas[-1] >= epsilon:
            out.append("Improved")
        else:
            out.append("Plateau")
        if out[-1] in ("Converged", "MaxRounds"):
            break
    return out


def loop_requests(n_train: int, n_eval: int, rounds: int) -> int:
    """Backend requests of a cold loop in which every sample is Positive.

    Baseline eval: tts, translate and score per eval sample (3M). Round 1
    synthesizes every train sample once (N); later rounds reuse the same
    voices and hit the cache. Each round the model version moves on, so
    refinement asks two translations and two scores per train sample (4N)
    and evaluation one translation and one score per eval sample (2M).
    """
    return 3 * n_eval + n_train + rounds * (4 * n_train + 2 * n_eval)
