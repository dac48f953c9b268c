"""Piece-table ingestion and unigram Viterbi segmentation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoloop.errors import PieceTableError
from evoloop.metrics import (
    PieceTable,
    load_piece_table,
    sp_segment,
    sp_segment_spans,
)
from evoloop.metrics.spm import SPACE_MARKER, normalize_for_pieces, viterbi_decode

from helpers import make_table

M = SPACE_MARKER


def exhaustive_best_score(norm, pieces, unk_logprob):
    """Enumerate every segmentation; return the maximum total logprob.

    Recursion over positions; unknown steps consume one codepoint and are
    legal only where the codepoint is not itself a piece.
    """
    n = len(norm)

    def rec(pos):
        if pos == n:
            return 0.0
        best = -math.inf
        if norm[pos] not in pieces:
            rest = rec(pos + 1)
            if rest > -math.inf:
                best = max(best, unk_logprob + rest)
        for piece, logprob in pieces.items():
            if norm.startswith(piece, pos):
                rest = rec(pos + len(piece))
                if rest > -math.inf:
                    best = max(best, logprob + rest)
        return best

    return rec(0)


def random_table(rng, max_pieces=12):
    alphabet = "ab" + M
    target = rng.randint(2, max_pieces)
    entries = {}
    while len(entries) < target:
        piece = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        entries[piece] = round(rng.uniform(-5.0, -0.1), 3)
    return PieceTable(entries)


def word_local_tables(logprobs):
    """PieceTables whose pieces hold the marker only at position 0."""
    piece = st.tuples(st.booleans(), st.text("ab", max_size=3)).map(
        lambda marked_body: (M if marked_body[0] else "") + marked_body[1]
    ).filter(bool)
    return st.dictionaries(piece, logprobs, min_size=1, max_size=10).map(PieceTable)


# exact binary fractions: sums of these never round, so no tie can flip
DYADIC = st.integers(-5 * 256, 0).map(lambda k: k / 256)
# 1-3 decimals, as in exported vocabularies: sums round
DECIMAL = st.integers(1, 3).flatmap(
    lambda places: st.integers(-5 * 10**places, 0).map(lambda k: k / 10**places)
)
WORDS = st.lists(st.text("abc", max_size=3), min_size=1, max_size=4).map(" ".join)


def inner_marker_tables(logprobs):
    """PieceTables that are not word-local: some piece holds an inner marker."""
    piece = st.text("ab" + M, min_size=1, max_size=3)
    return st.dictionaries(piece, logprobs, min_size=1, max_size=10).filter(
        lambda pieces: any(M in p[1:] for p in pieces)).map(PieceTable)


def spans_score(norm, spans, table):
    return sum(table.unk_logprob if is_unk else table.pieces[norm[a:b]]
               for a, b, is_unk in spans)


class TestPieceTable:
    def test_rejects_empty(self):
        with pytest.raises(PieceTableError):
            PieceTable({})

    def test_rejects_positive_logprob(self):
        with pytest.raises(PieceTableError):
            PieceTable({"a": 0.5})

    def test_rejects_non_finite(self):
        with pytest.raises(PieceTableError):
            PieceTable({"a": float("-inf")})
        with pytest.raises(PieceTableError):
            PieceTable({"a": float("nan")})

    def test_rejects_raw_space_in_piece(self):
        with pytest.raises(PieceTableError):
            PieceTable({"a b": -1.0})

    def test_derived_unk_penalty_sits_below_worst_piece(self):
        t = PieceTable({"a": -1.0, "b": -4.5})
        assert t.unk_logprob == -14.5

    def test_explicit_unk_penalty(self):
        t = PieceTable({"a": -1.0}, unk_logprob=-3.0)
        assert t.unk_logprob == -3.0

    def test_max_piece_len(self):
        t = PieceTable({"a": -1.0, "abc": -2.0})
        assert t.max_piece_len == 3

    def test_word_local_only_without_inner_markers(self):
        assert make_table([(M, -1.0), (f"{M}a", -1.0), ("a", -1.0)]).word_local
        assert not make_table([(f"a{M}", -1.0)]).word_local

    def test_duplicate_in_make_table(self):
        with pytest.raises(PieceTableError):
            make_table([("a", -1.0), ("a", -2.0)])

    def test_loaded_table_equals_constructed_table(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text(f"<unk>\t0\n{M}ab\t-1.5\na\t-2\nb\t-3.25\n", encoding="utf-8")
        loaded = load_piece_table(p)
        built = PieceTable({f"{M}ab": -1.5, "a": -2.0, "b": -3.25})
        for attr in PieceTable.__slots__:
            assert getattr(loaded, attr) == getattr(built, attr)


class TestTsvLoading:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text(
            "# vocabulary export\n"
            f"{M}the\t-2.5\n"
            f"{M}\t-3.0\n"
            "a\t-1.5\n"
            "\n",
            encoding="utf-8",
        )
        t = load_piece_table(p)
        assert t.pieces == {f"{M}the": -2.5, M: -3.0, "a": -1.5}

    def test_control_rows_excluded_from_lattice(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text(
            "<unk>\t0\n<s>\t0\n</s>\t0\n"
            "a\t-1.0\nb\t-2.0\n",
            encoding="utf-8",
        )
        t = load_piece_table(p)
        assert "<unk>" not in t.pieces
        assert "<s>" not in t.pieces
        # placeholder 0 score means: derive the penalty
        assert t.unk_logprob == -12.0

    def test_explicit_unk_score_respected(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text("<unk>\t-7.5\na\t-1.0\n", encoding="utf-8")
        assert load_piece_table(p).unk_logprob == -7.5

    def test_duplicate_piece_rejected(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text("a\t-1.0\na\t-2.0\n", encoding="utf-8")
        with pytest.raises(PieceTableError):
            load_piece_table(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text("a\t-1.0\textra\n", encoding="utf-8")
        with pytest.raises(PieceTableError):
            load_piece_table(p)

    def test_bad_number(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text("a\tnot-a-number\n", encoding="utf-8")
        with pytest.raises(PieceTableError):
            load_piece_table(p)

    @pytest.mark.parametrize("rows, message", [
        ("b\t-1.0\na\t0.5\n", "piece 'a': logprob must be finite and <= 0, got 0.5"),
        ("a\tnan\n", "piece 'a': logprob must be finite and <= 0, got nan"),
        ("b\t-1.0\na b\t-1.0\n",
         f"piece 'a b' contains raw whitespace; use {SPACE_MARKER} for word boundaries"),
        ("\t-1.0\n", "invalid piece ''"),
    ], ids=["positive-logprob", "nan-logprob", "raw-space", "empty-piece"])
    def test_invalid_row_message(self, tmp_path, rows, message):
        # the loader leaves these checks to PieceTable; the text is the same
        p = tmp_path / "v.tsv"
        p.write_text(rows, encoding="utf-8")
        with pytest.raises(PieceTableError) as err:
            load_piece_table(p)
        assert str(err.value) == message

    def test_comments_only_is_empty(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text("# nothing\n# here\n", encoding="utf-8")
        with pytest.raises(PieceTableError):
            load_piece_table(p)


class TestSegmentation:
    def test_prefers_higher_total_logprob(self):
        # one three-codepoint piece at -1.0 beats marker+bigram at -1.3
        t = make_table([(f"{M}ab", -1.0), (f"{M}a", -0.7), ("b", -0.6)])
        assert sp_segment("ab", t) == [f"{M}ab"]

    def test_splits_when_parts_win(self):
        t = make_table([(f"{M}ab", -2.0), (f"{M}a", -0.5), ("b", -0.5)])
        assert sp_segment("ab", t) == [f"{M}a", "b"]

    def test_single_codepoint_piece(self):
        t = make_table([(M, -1.0), ("x", -1.0)])
        assert sp_segment("x", t) == [M, "x"]

    def test_unknown_codepoint_emits_unk_piece(self):
        t = make_table([(M, -1.0)])
        assert sp_segment("q", t) == [M, "<unk>"]

    def test_unk_never_replaces_known_single_codepoint(self):
        # generous unk score must not shadow an existing single-char piece
        t = make_table([(M, -1.0), ("z", -9.0)], unk_logprob=-0.1)
        assert sp_segment("z", t) == [M, "z"]

    def test_spaces_become_markers(self):
        t = make_table([(f"{M}a", -1.0), (f"{M}b", -1.0)])
        assert sp_segment("a b", t) == [f"{M}a", f"{M}b"]

    def test_empty_text_segments_the_marker(self):
        t = make_table([(M, -1.0)])
        assert sp_segment("", t) == [M]

    def test_viterbi_score_matches_exhaustive_enumeration(self):
        rng = random.Random(515)
        for _ in range(60):
            t = random_table(rng)
            text = "".join(rng.choice("ab ") for _ in range(rng.randint(0, 8)))
            norm, spans, score = sp_segment_spans(text, t)
            want = exhaustive_best_score(norm, t.pieces, t.unk_logprob)
            assert score == pytest.approx(want, abs=1e-12), (text, t.pieces)

    def test_reconstruction_invariant(self):
        rng = random.Random(616)
        for _ in range(300):
            t = random_table(rng)
            text = "".join(rng.choice("abc x") for _ in range(rng.randint(0, 15)))
            norm, spans, _ = sp_segment_spans(text, t)
            assert norm == normalize_for_pieces(text)
            rebuilt = "".join(norm[a:b] for a, b, _ in spans)
            assert rebuilt == norm
            # spans tile the string contiguously
            pos = 0
            for a, b, is_unk in spans:
                assert a == pos and b > a
                if is_unk:
                    assert b - a == 1
                    assert norm[a] not in t.pieces
                else:
                    assert norm[a:b] in t.pieces
                pos = b
            assert pos == len(norm)

    def test_inner_marker_piece_spans_words(self):
        # a piece holding an inner marker must be able to win across words
        t = make_table([(f"{M}a", -1.0), (f"{M}b", -1.0), (f"{M}a{M}b", -1.5)])
        assert sp_segment("a b", t) == [f"{M}a{M}b"]

    def test_deterministic_across_calls(self):
        t = make_table([(f"{M}a", -1.0), ("a", -1.0), (M, -1.0)])
        runs = {tuple(sp_segment("a a a", t)) for _ in range(5)}
        assert len(runs) == 1


class TestViterbiDecode:
    def test_tie_break_is_first_candidate(self):
        # "aa" coverable as a+a or aa, same total score -2.0. Positions scan
        # left to right, so i=0 writes the length-2 candidate into the final
        # slot before the path through i=1 ties against it; strict > keeps
        # the earlier writer.
        spans, score = viterbi_decode("aa", {"a": -1.0, "aa": -2.0}, 2, -10.0)
        assert score == -2.0
        assert spans == [(0, 2, False)]

    def test_empty_string(self):
        assert viterbi_decode("", {"a": -1.0}, 1, -5.0) == ([], 0.0)


class TestWordChunkedDecode:
    @settings(max_examples=200, deadline=None)
    @given(word_local_tables(DYADIC), WORDS)
    def test_equals_whole_string_decode_on_exact_logprobs(self, table, text):
        assert table.word_local
        norm, spans, score = sp_segment_spans(text, table)
        whole = viterbi_decode(norm, table.pieces, table.max_piece_len, table.unk_logprob)
        assert (spans, score) == whole

    @settings(max_examples=200, deadline=None)
    @given(word_local_tables(DECIMAL), WORDS)
    def test_optimal_on_decimal_logprobs(self, table, text):
        norm, spans, _ = sp_segment_spans(text, table)
        want = exhaustive_best_score(norm, table.pieces, table.unk_logprob)
        assert spans_score(norm, spans, table) == pytest.approx(want, abs=1e-9)


def pieces_from_spans(text, table):
    norm, spans, _ = sp_segment_spans(text, table)
    return [table.unk_piece if is_unk else norm[a:b] for a, b, is_unk in spans]


# spaces, markers already in the text, and a codepoint no table holds
TEXTS = st.lists(st.text("abc " + M, max_size=8), min_size=1, max_size=6)


class TestSegmentWordMemo:
    def check(self, table, texts):
        memo = {}
        for text in texts:
            got = sp_segment(text, table, memo)
            assert got == pieces_from_spans(text, table)
            got.append("x")  # the caller's list is its own, not the memo's
        for text in texts:
            assert sp_segment(text, table, memo) == pieces_from_spans(text, table)

    @settings(max_examples=200, deadline=None)
    @given(word_local_tables(DECIMAL), TEXTS)
    def test_shared_memo_equals_spans_on_word_local_tables(self, table, texts):
        assert table.word_local
        self.check(table, texts)

    @settings(max_examples=200, deadline=None)
    @given(inner_marker_tables(DECIMAL), TEXTS)
    def test_shared_memo_equals_spans_on_other_tables(self, table, texts):
        assert not table.word_local
        self.check(table, texts)
