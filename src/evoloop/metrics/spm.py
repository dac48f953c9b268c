"""Unigram segmentation over a piece table.

The table is ingested from a TSV export (piece<TAB>logprob, UTF-8,
#-prefixed comment lines ignored); producing that TSV from a binary
SentencePiece model is a documented offline step, which keeps this module
dependency-free and testable in isolation. Only unigram inference is
implemented; BPE merge inference is out of scope.

Input text is marker-normalized before decoding: every U+0020 becomes the
marker U+2581 and one marker is prepended. Codepoints no piece covers are
emitted as the table's unk piece, one codepoint per emission, so
segmentation is total for any input.

When the table is word-local (no piece holds the marker past its first
codepoint), every segmentation breaks before each marker, so each word,
from its marker up to the next, is decoded on its own and the text's
segmentation is the concatenation of the words' segmentations.
Callers scoring many strings can pass sp_segment one memo, which maps a
word to its finished piece list, so a repeated word costs one lookup.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping

from ..errors import PieceTableError

SPACE_MARKER = "▁"

_NEG_INF = float("-inf")

_CONTROL_PIECES = ("<unk>", "<s>", "</s>")


class PieceTable:
    """Unigram vocabulary: piece strings with log-probabilities.

    Log-probabilities must be finite and non-positive. When no unknown-piece
    score is supplied, a penalty 10 below the worst real piece is derived, so
    the decoder prefers any dictionary segmentation over an unknown step.
    word_local is True when no piece holds the marker past its first
    codepoint; such a table decodes word by word.
    """

    __slots__ = ("pieces", "unk_piece", "unk_logprob", "max_piece_len", "word_local")

    def __init__(self, pieces: Mapping[str, float], unk_logprob: float | None = None):
        if not pieces:
            raise PieceTableError("piece table is empty")
        clean = {piece: _check_piece(piece, logprob) for piece, logprob in pieces.items()}
        if unk_logprob is None:
            unk_logprob = min(clean.values()) - 10.0
        if not math.isfinite(unk_logprob) or unk_logprob > 0.0:
            raise PieceTableError(f"unk logprob must be finite and <= 0, got {unk_logprob}")
        self.pieces = clean
        self.unk_piece = "<unk>"
        self.unk_logprob = float(unk_logprob)
        self.max_piece_len = max(len(p) for p in clean)
        self.word_local = not any(SPACE_MARKER in p[1:] for p in clean)


def _check_piece(piece: str, logprob: float) -> float:
    """The piece's logprob as a float; raises PieceTableError if either is invalid."""
    if not isinstance(piece, str) or not piece:
        raise PieceTableError(f"invalid piece {piece!r}")
    if " " in piece or "\t" in piece or "\n" in piece:
        raise PieceTableError(
            f"piece {piece!r} contains raw whitespace; use {SPACE_MARKER} for word boundaries"
        )
    try:
        value = float(logprob)
    except (TypeError, ValueError):
        raise PieceTableError(f"piece {piece!r}: logprob {logprob!r} is not a number") from None
    if not math.isfinite(value) or value > 0.0:
        raise PieceTableError(f"piece {piece!r}: logprob must be finite and <= 0, got {value}")
    return value


def load_piece_table(path: str | Path) -> PieceTable:
    """Read a TSV vocabulary export.

    Control rows (<unk>, <s>, </s>) are kept out of the matching lattice.
    An <unk> row with a non-zero score sets the unknown-step penalty; a 0.0
    score (the usual export placeholder) means "derive it".
    """
    pieces: dict[str, float] = {}
    seen_controls: set[str] = set()
    unk_logprob: float | None = None
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise PieceTableError(
                    f"{path}:{line_no}: expected piece<TAB>logprob, got {len(parts)} fields"
                )
            piece, score_text = parts
            try:
                score = float(score_text)
            except ValueError:
                raise PieceTableError(
                    f"{path}:{line_no}: bad logprob {score_text!r}"
                ) from None
            if piece in _CONTROL_PIECES:
                if piece in seen_controls:
                    raise PieceTableError(f"{path}:{line_no}: duplicate piece {piece!r}")
                seen_controls.add(piece)
                if piece == "<unk>" and score != 0.0:
                    unk_logprob = score
                continue
            if piece in pieces:
                raise PieceTableError(f"{path}:{line_no}: duplicate piece {piece!r}")
            pieces[piece] = score  # PieceTable checks every piece
    if not pieces:
        raise PieceTableError(f"{path}: no usable pieces")
    return PieceTable(pieces, unk_logprob=unk_logprob)


def normalize_for_pieces(text: str) -> str:
    """Replace spaces with the word-boundary marker and prepend one."""
    return SPACE_MARKER + text.replace(" ", SPACE_MARKER)


def viterbi_decode(norm, pieces, max_piece_len, unk_logprob):
    """Maximum-log-probability segmentation of an already-normalized string.

    pieces maps piece -> logprob. A one-codepoint unknown step with
    unk_logprob is available only at positions whose codepoint is not itself
    a piece. Ties keep the earliest candidate: positions scan left to right,
    the unknown step is tried before dictionary pieces, and piece lengths go
    short to long; replacement requires a strictly better score.

    Returns (spans, score): spans is a list of (start, end, is_unk) covering
    [0, len(norm)) contiguously; score is the summed logprob.
    """
    n = len(norm)
    if n == 0:
        return [], 0.0
    best = [_NEG_INF] * (n + 1)
    best[0] = 0.0
    back = [None] * (n + 1)
    for i in range(n):
        base = best[i]
        if base == _NEG_INF:
            continue
        if norm[i] not in pieces:
            cand = base + unk_logprob
            if cand > best[i + 1]:
                best[i + 1] = cand
                back[i + 1] = (i, True)
        limit = max_piece_len if max_piece_len < n - i else n - i
        for length in range(1, limit + 1):
            logprob = pieces.get(norm[i:i + length])
            if logprob is None:
                continue
            j = i + length
            cand = base + logprob
            if cand > best[j]:
                best[j] = cand
                back[j] = (i, False)
    spans = []
    j = n
    while j > 0:
        i, is_unk = back[j]
        spans.append((i, j, is_unk))
        j = i
    spans.reverse()
    return spans, best[n]


def sp_segment_spans(
    text: str, table: PieceTable
) -> tuple[str, list[tuple[int, int, bool]], float]:
    """Decode; returns (normalized_text, spans, total_logprob).

    Each span is (start, end, is_unk) over the normalized text; spans tile it
    contiguously. Exposed separately from sp_segment so optimality and
    reconstruction can be checked span by span.

    A word-local table decodes each word (a marker and the codepoints up to
    the next marker) on its own with viterbi_decode, so ties keep the
    earliest candidate within a word, and the total is the sum of the word
    scores taken left to right. Any other table decodes the whole string at
    once.
    """
    norm = normalize_for_pieces(text)
    if table.word_local:
        chunks = [SPACE_MARKER + word for word in norm[1:].split(SPACE_MARKER)]
    else:
        chunks = [norm]
    spans: list[tuple[int, int, bool]] = []
    score = 0.0
    offset = 0
    for chunk in chunks:
        chunk_spans, chunk_score = viterbi_decode(
            chunk, table.pieces, table.max_piece_len, table.unk_logprob
        )
        spans.extend((a + offset, b + offset, is_unk) for a, b, is_unk in chunk_spans)
        score += chunk_score
        offset += len(chunk)
    return norm, spans, score


def sp_segment(text: str, table: PieceTable, memo: dict | None = None) -> list[str]:
    """Segment text into pieces, maximizing total log-probability.

    Unknown codepoints appear as table.unk_piece. Concatenating the output,
    with each unk occurrence replaced by the codepoint it consumed, rebuilds
    the marker-normalized input exactly. The pieces equal those of
    sp_segment_spans: a word-local table decodes word by word, any other
    table decodes the whole string at once.

    memo maps a word (a decoded chunk without its leading marker; the whole
    text for a table that is not word-local) to its piece list; pass the
    same dict across calls with one table so a repeated word costs one
    lookup.
    """
    marked = text.replace(" ", SPACE_MARKER)
    words = marked.split(SPACE_MARKER) if table.word_local else (marked,)
    if memo is None:
        memo = {}
    out: list[str] = []
    for word in words:
        pieces = memo.get(word)
        if pieces is None:
            chunk = SPACE_MARKER + word
            spans, _ = viterbi_decode(chunk, table.pieces, table.max_piece_len,
                                      table.unk_logprob)
            pieces = memo[word] = [table.unk_piece if is_unk else chunk[a:b]
                                   for a, b, is_unk in spans]
        out += pieces
    return out
