"""Atomic file writes (the one temp-file-plus-rename protocol), JSON encodings,
the JSONL reader and the JSON type checks every reader applies.

A file is written whole to a temp file in its own directory and renamed
over the target, so a reader or a resumed run sees either the previous
file or the new one, never a torn one, and concurrent writers of the
same content are harmless (the last rename wins). Written files get the
mode a plain open() would give them under the process umask.

This module imports nothing from evoloop, so every layer can use it.
"""

from __future__ import annotations

import enum
import functools
import io
import json
import os
import sys
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path
from typing import AbstractSet, Callable, Dict, Iterable, Iterator

__all__ = ["NOT_OBJECT", "NOT_UTF8", "canonical_payload", "json_expect", "json_field",
           "json_fields", "json_integer", "json_number", "json_string", "read_jsonl",
           "write_atomic", "write_json", "write_jsonl"]

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


# --- JSON type checks -----------------------------------------------------------
# A value decoded from JSON must have one of its field's exact types: an
# integer is an int, never a bool; a number is an int or a float, never a
# bool or a string, and finite, though json.loads accepts NaN and
# Infinity. A TypeError or ValueError says what was expected.

def json_expect(value, kinds: tuple, name: str):
    """value, when its type is exactly one of kinds; else a TypeError."""
    if type(value) not in kinds:
        raise TypeError(f"expected {name}, got {value!r}")
    return value


def json_string(value) -> str:
    return json_expect(value, (str,), "a string")


def json_integer(value) -> int:
    return json_expect(value, (int,), "an integer")


def json_number(value) -> float:
    limit = sys.float_info.max  # the comparisons are exact for any int, and false for NaN
    if not -limit <= json_expect(value, (int, float), "a number") <= limit:
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _strings(value, size: int | None = None) -> tuple:
    strings = tuple(json_string(v) for v in json_expect(value, (list,), "a list"))
    if size not in (None, len(strings)):
        raise ValueError(f"expected a list of {size} strings, got {value!r}")
    return strings


# by a field's annotation: the check that takes a decoded value to the field's
_JSON_TYPES: Dict[str, Callable] = {
    "int": json_integer,
    "float": json_number,
    "str": json_string,
    "Dict[str, float]": lambda value: {
        key: json_number(v) for key, v in json_expect(value, (dict,), "an object").items()},
    "Tuple[str, ...]": _strings,
    "tuple[str, str]": lambda value: _strings(value, 2),
}


def _through_enum(kind: type) -> Callable:
    if not issubclass(kind, enum.Enum):
        raise TypeError(f"no JSON check for a field of type {kind!r}")
    return lambda value: kind(json_string(value))


@functools.cache
def _field_checks(cls) -> tuple:
    """(name, check, whether it has no default) per field of dataclass
    cls. An annotation that _JSON_TYPES lacks names an enum class in cls's
    module, and the field takes a string through that enum."""
    names = vars(sys.modules[cls.__module__])
    return tuple((f.name, _JSON_TYPES.get(f.type) or _through_enum(names[f.type]),
                  f.default is f.default_factory is MISSING) for f in fields(cls))


def json_field(obj: dict, key: str, check: Callable, prefix: str = ""):
    """check(obj[key]). A ValueError names the key, after `prefix`, when it
    is missing or check refuses its value."""
    if key not in obj:
        raise ValueError(f"lacks {prefix + key!r}")
    try:
        return check(obj[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{prefix}{key}: {exc}") from None


def json_fields(obj: object, cls, required: AbstractSet[str] = frozenset(),
                prefix: str = "") -> dict:
    """The fields of dataclass `cls` that JSON object `obj` holds, each
    checked against its annotation. A field with no default, or one named
    in `required`, must be present. A ValueError names the key that is
    missing or mistyped, after `prefix`."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {obj!r}")
    return {name: json_field(obj, name, check, prefix)
            for name, check, needed in _field_checks(cls)
            if needed or name in obj or name in required}
