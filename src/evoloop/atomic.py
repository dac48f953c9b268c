"""Atomic file writes (the one temp-file-plus-rename protocol), JSON encodings, the JSONL reader.

A file is written whole to a temp file in its own directory and renamed
over the target, so a reader or a resumed run sees either the previous
file or the new one, never a torn one, and concurrent writers of the
same content are harmless (the last rename wins). Written files get the
mode a plain open() would give them under the process umask.

This module imports nothing from evoloop, so every layer can use it.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["NOT_OBJECT", "NOT_UTF8", "canonical_payload", "read_jsonl", "write_atomic",
           "write_json", "write_jsonl"]

# read once: os.umask can only be read by setting it
_UMASK = os.umask(0)
os.umask(_UMASK)


def write_atomic(path: str | Path, data: bytes) -> bytes:
    """Replace path's content with data and return it; creates parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, 0o666 & ~_UMASK)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return data


def canonical_payload(payload: object) -> str:
    """payload as compact, sorted-key JSON text: the one encoding that
    content ids, cache keys and run fingerprints hash."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def write_json(path: str | Path, obj) -> bytes:
    """Write obj as sorted, indented UTF-8 JSON; return the bytes."""
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    return write_atomic(path, text.encode("utf-8"))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> bytes:
    """Write rows as sorted-key UTF-8 JSONL, one object per line; return the bytes.

    Every row is encoded before anything is written, so a row that cannot
    be encoded leaves the previous file as it was.
    """
    text = "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n" for row in rows)
    return write_atomic(path, text.encode("utf-8"))


# reasons read_jsonl gives for a bad line, besides the JSON decoder's message
NOT_UTF8 = "not UTF-8"
NOT_OBJECT = "not a JSON object"


def read_jsonl(source: str | Path | bytes) -> Iterator[tuple[int, dict | str]]:
    """Stream a JSONL file, or its content as bytes, as (line number, row) pairs.

    Lines end at b"\\n" and are numbered from 1, blank ones included, but a
    blank line yields nothing. Each other line is decoded as UTF-8 on its
    own, then as JSON, and must hold an object. row is that dict or, for a
    bad line, the reason as a str (NOT_UTF8, the decoder's message or
    NOT_OBJECT), not an exception: each caller words it and decides whether
    to stop. Only the current line is held decoded.
    """
    with io.BytesIO(source) if isinstance(source, bytes) else open(source, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    row = json.loads(line)
                    yield line_no, row if isinstance(row, dict) else NOT_OBJECT
            except UnicodeDecodeError:
                yield line_no, NOT_UTF8
            except json.JSONDecodeError as exc:
                yield line_no, exc.msg
