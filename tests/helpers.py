"""Test doubles and constructors that no evoloop command uses."""

from __future__ import annotations

from typing import Iterable

from evoloop.backends.mock import CallCounter
from evoloop.errors import PieceTableError
from evoloop.metrics import PieceTable


class EchoTranslator:
    """Returns the source text unchanged in both modes."""

    def __init__(self):
        self.calls = CallCounter()

    def translate(self, payload: dict) -> dict:
        self.calls.bump()
        return {"text": payload["text"]}


def make_table(entries: Iterable[tuple[str, float]], **kwargs) -> PieceTable:
    """A piece table from (piece, logprob) pairs; a duplicate piece errors."""
    pieces: dict[str, float] = {}
    for piece, logprob in entries:
        if piece in pieces:
            raise PieceTableError(f"duplicate piece {piece!r}")
        pieces[piece] = logprob
    return PieceTable(pieces, **kwargs)
