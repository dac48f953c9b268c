"""Translation quality metrics: BLEU/spBLEU, segmentation, aggregation."""

from .aggregate import (
    DirectionScore,
    aggregate_by_resource,
    average_directions,
    round1,
)
from .bleu import BleuResult, compute_bleu, corpus_bleu, corpus_spbleu
from .spm import PieceTable, load_piece_table, sp_segment, sp_segment_spans
from .tokenizer import normalize_13a, tokenize_13a

__all__ = [
    "BleuResult",
    "DirectionScore",
    "PieceTable",
    "aggregate_by_resource",
    "average_directions",
    "compute_bleu",
    "corpus_bleu",
    "corpus_spbleu",
    "load_piece_table",
    "normalize_13a",
    "round1",
    "sp_segment",
    "sp_segment_spans",
    "tokenize_13a",
]
