"""Seeded inputs for the benchmark workloads.

Every input is a function of the seed and the workload size alone. The
program only ever sees the files written here, never the seed.

Words are lowercase ASCII strings, so a sentence's whitespace tokens are
its words. The piece table gives every vocabulary word its own
word-initial piece with a log-probability above -4 and gives every
other piece (single letters, the bare marker, sub-word fragments) one
below -5. Any split of a word therefore scores below -6 and loses to the
word's own piece, which makes the expected segmentation of a sentence
simply one piece per word.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

LETTERS = "abcdefghijklmnopqrstuvwxyz"
MARKER = "▁"

LOOP_DIRECTION = ("eng", "khm")
EVAL_DIRECTIONS = (("eng", "deu"), ("eng", "khm"))


def make_vocab(rng: random.Random, size: int, min_len: int = 2, max_len: int = 10) -> list:
    words = set()
    while len(words) < size:
        n = rng.randint(min_len, max_len)
        words.add("".join(rng.choice(LETTERS) for _ in range(n)))
    return sorted(words)  # set order varies with the hash seed; sorting does not


def unique_sentences(rng, vocab, count, min_tokens, max_tokens, seen):
    """Distinct sentences whose lengths spread evenly over the range.

    Only the order of the lengths depends on the seed, so the total token
    count, and with it the work per run, is the same for every seed.
    """
    span = max_tokens - min_tokens + 1
    lengths = [min_tokens + (i * span) // count for i in range(count)]
    rng.shuffle(lengths)
    out = []
    for n in lengths:
        text = " ".join(rng.choice(vocab) for _ in range(n))
        while text in seen:
            text = " ".join(rng.choice(vocab) for _ in range(n))
        seen.add(text)
        out.append(text)
    return out


def sample_id(src: str, tgt: str, text: str, reference: str) -> str:
    """The manifest content id as docs/formats.md defines it."""
    canonical = json.dumps([src, tgt, text, reference], ensure_ascii=False,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def row(direction, text: str, reference: str) -> dict:
    src, tgt = direction
    return {"id": sample_id(src, tgt, text, reference), "src_lang": src,
            "tgt_lang": tgt, "text": text, "reference": reference}


def write_jsonl(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for obj in rows:
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def replace_one(rng, vocab, text: str) -> str:
    tokens = text.split()
    i = rng.randrange(len(tokens))
    word = tokens[i]
    while word == tokens[i]:
        word = rng.choice(vocab)
    tokens[i] = word
    return " ".join(tokens)


def loop_corpus(seed: int, n_train: int, n_eval: int):
    """Train and eval rows in one direction, 6-30 tokens, all texts distinct.

    Train references equal their text. Each eval reference has one token
    swapped, so eval scores are not all 1.
    """
    rng = random.Random(f"loop|{seed}")
    vocab = make_vocab(rng, 2000)
    seen: set = set()
    train = [row(LOOP_DIRECTION, t, t)
             for t in unique_sentences(rng, vocab, n_train, 6, 30, seen)]
    eval_rows = []
    for t in unique_sentences(rng, vocab, n_eval, 6, 30, seen):
        eval_rows.append(row(LOOP_DIRECTION, t, replace_one(rng, vocab, t)))
    return train, eval_rows


def piece_table(rng: random.Random, vocab) -> list:
    """(piece, logprob) rows: one piece per word, plus letters and fragments."""
    rows = [(MARKER + w, rng.uniform(-4.0, -1.0)) for w in vocab]
    rows += [(ch, rng.uniform(-8.0, -6.0)) for ch in LETTERS]
    rows.append((MARKER, -6.5))
    fragments = set()
    while len(fragments) < len(vocab):
        word = rng.choice(vocab)
        if len(word) < 3:
            continue
        i = rng.randrange(len(word) - 1)
        j = rng.randint(i + 2, min(len(word), i + 5))
        fragments.add(word[i:j])
    rows += [(f, rng.uniform(-9.0, -5.0)) for f in sorted(fragments)]
    return rows


def write_piece_table(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic unigram table: piece<TAB>logprob\n")
        fh.write("<unk>\t0\n<s>\t0\n</s>\t0\n")
        for piece, logprob in rows:
            fh.write(f"{piece}\t{logprob!r}\n")


def perturb(rng, vocab, reference: str) -> str:
    """A plausible system output: most tokens kept, some swapped or dropped."""
    out = []
    for token in reference.split():
        u = rng.random()
        if u < 0.10:
            continue
        out.append(rng.choice(vocab) if u < 0.22 else token)
        if rng.random() < 0.03:
            out.append(rng.choice(vocab))
    return " ".join(out) if out else reference.split()[0]


def flores_inputs(seed: int, lines: int, directions=EVAL_DIRECTIONS):
    """Manifest rows, hypothesis rows and piece-table rows.

    The first direction's hypotheses equal their references, so its
    spBLEU is exactly 100; the others are perturbed references.
    """
    rng = random.Random(f"flores|{seed}")
    vocab = make_vocab(rng, 4000)
    table = piece_table(rng, vocab)
    seen: set = set()
    manifest, hyps = [], []
    for d, direction in enumerate(directions):
        sources = unique_sentences(rng, vocab, lines, 8, 36, seen)
        refs = unique_sentences(rng, vocab, lines, 8, 36, seen)
        for text, ref in zip(sources, refs):
            obj = row(direction, text, ref)
            manifest.append(obj)
            hyp = ref if d == 0 else perturb(rng, vocab, ref)
            hyps.append({"id": obj["id"], "text": hyp})
    return manifest, hyps, table
