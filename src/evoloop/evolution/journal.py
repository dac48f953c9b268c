"""Write-ahead journal for loop runs.

Every phase output lands in `rounds/<k>/` and is fingerprinted in a
single ledger file (`journal.json`) at the workspace root. Acquisition
runs once per run, so only `rounds/1/` holds its manifest. A fresh step
hands `Journal.record_phase` the bytes it wrote, and the ledger, rewritten
after the phase's files, records their digest; no file is read back, so
a file another process replaced in between fails the next resume. A
resumed run trusts a phase only when the ledger entry exists and the file
bytes still hash to the recorded digest; anything else inside a recorded
entry is treated as corruption rather than silently recomputed. A resume
reads each journaled file once: `Journal.phase_done` hands back the bytes
it hashed, and every parse of the phase uses those bytes.

All writes, the ledger's and every phase file's, go through
`atomic.write_atomic` (temp file plus rename), so a kill can never leave
a half-written journal, and all recorded paths are workspace-relative so two
runs in different directories produce byte-identical trees.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional

from ..atomic import write_json
from ..backends.cache import canonical_payload
from ..errors import ResumeStateCorrupt
from .types import RoundState, json_integer, json_number

__all__ = ["Journal", "PHASE_FILES", "load_round_state", "round_file"]

LEDGER_NAME = "journal.json"
# 2: acquisition journaled once, under round 1
LEDGER_FORMAT = 2
ROUNDS_DIR = "rounds"
_READ_SIZE = 1 << 20

ACQUISITION = "acquisition"
REFINEMENT = "refinement"
UPDATE = "update"
EVALUATION = "evaluation"

PHASE_FILES: Dict[str, tuple] = {
    ACQUISITION: ("acquisition.jsonl",),
    REFINEMENT: ("scored.jsonl",),
    UPDATE: ("positives.jsonl", "negatives.jsonl", "jobspec.json"),
    EVALUATION: ("state.json",),
}


def round_file(round_index: int, name: str) -> str:
    """Workspace-relative path of a round's file, as the ledger records it."""
    return f"{ROUNDS_DIR}/{round_index}/{name}"


def _read_file(path: str) -> Optional[bytes]:
    """The file's whole content, or None when no file stands at path.

    One os.open, then unbuffered reads to end of file: a journaled file
    mostly fits one read, and a buffered file object costs more than the
    read itself.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except (FileNotFoundError, NotADirectoryError):
        return None
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
        return b"".join(chunks)
    except IsADirectoryError:
        return None
    finally:
        os.close(fd)


def load_round_state(round_index: int, contents: Dict[str, bytes]) -> RoundState:
    """The round's state, parsed from its evaluation files as
    `Journal.phase_done` returns them."""
    rel_path = round_file(round_index, "state.json")
    try:
        return RoundState.from_json(json.loads(contents[rel_path].decode("utf-8")))
    except ValueError as exc:  # JSON, UTF-8 and type errors alike
        raise ResumeStateCorrupt(f"{rel_path}: {exc}") from exc


def _expect_object(value, *key: str, of_strings: bool = False) -> dict:
    if type(value) is not dict or of_strings and not all(type(v) is str for v in value.values()):
        kind = "an object of strings" if of_strings else "an object"
        raise ResumeStateCorrupt(f"{LEDGER_NAME}: {'.'.join(key)}: expected {kind}, got {value!r}")
    return value


class Journal:
    def __init__(self, workspace: str):
        self.workspace = Path(workspace)
        # the workspace as a string ending in a separator: a journaled
        # file's path is root + its workspace-relative path
        self.root = os.path.join(workspace, "")
        self.ledger_path = self.workspace / LEDGER_NAME
        self._ledger: dict = {}

    # --- ledger lifecycle ---------------------------------------------

    @classmethod
    def read_only(cls, workspace: str) -> "Journal":
        """The workspace's ledger, loaded and its format checked, for
        reading: nothing is created and no fingerprint is matched. A
        workspace with no ledger has no rounds."""
        jrnl = cls(workspace)
        if jrnl.ledger_path.exists():
            jrnl._load()
        return jrnl

    def open(self, fingerprint: Dict[str, str]) -> bool:
        """Load or create the ledger. Returns True when resuming.

        A ledger recorded under a different config or input set cannot be
        resumed; that is corruption from the loop's point of view, not a
        fresh start, because silently recomputing would mix artifacts
        from two different runs in one workspace.
        """
        self.workspace.mkdir(parents=True, exist_ok=True)
        if self.ledger_path.exists():
            self._load()
            if self._ledger["fingerprint"] != fingerprint:
                raise ResumeStateCorrupt(
                    "workspace was journaled under a different config or input set"
                )
            return True
        self._ledger = {
            "format": LEDGER_FORMAT,
            "fingerprint": dict(fingerprint),
            "model_version": 0,
            "rounds": {},
        }
        self._flush()
        return False

    def _load(self) -> None:
        try:
            with open(self.ledger_path, encoding="utf-8") as fh:
                self._ledger = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ResumeStateCorrupt(f"unreadable ledger: {exc}") from exc
        if not isinstance(self._ledger, dict) or "fingerprint" not in self._ledger:
            raise ResumeStateCorrupt("ledger missing fingerprint")
        if self._ledger.get("format") != LEDGER_FORMAT:
            raise ResumeStateCorrupt(
                f"ledger format {self._ledger.get('format', 1)!r} is not "
                f"{LEDGER_FORMAT}; start a new workspace"
            )
        # the ledger's shape, so that reading it later raises nothing else
        self.model_version()
        for k, phases in _expect_object(self._ledger.get("rounds", {}), "rounds").items():
            for phase, entry in _expect_object(phases, "rounds", k).items():
                files = _expect_object(entry, "rounds", k, phase).get("files", {})
                _expect_object(files, "rounds", k, phase, "files", of_strings=True)

    def _flush(self) -> None:
        write_json(self.ledger_path, self._ledger)

    # --- baseline and version -------------------------------------------

    def has_baseline(self) -> bool:
        return "baseline" in self._ledger

    def _field(self, key: str, check, default=None):
        try:
            return check(self._ledger.get(key, default))
        except TypeError as exc:
            raise ResumeStateCorrupt(f"{LEDGER_NAME}: {key}: {exc}") from exc

    def baseline(self) -> float:
        return self._field("baseline", json_number)

    def set_baseline(self, eval_score: float) -> None:
        self._ledger["baseline"] = float(eval_score)
        self._flush()

    def model_version(self) -> int:
        return self._field("model_version", json_integer, 0)

    # --- phases -----------------------------------------------------------

    def phase_done(self, round_index: int, phase: str) -> Optional[Dict[str, bytes]]:
        """The journaled phase's files as {workspace-relative path: bytes},
        or None when the phase is not journaled.

        Each file is read once and its digest checked against the ledger;
        the bytes returned are the bytes that were checked.
        """
        entry = self._ledger.get("rounds", {}).get(str(round_index), {}).get(phase)
        if entry is None:
            return None
        files = entry.get("files", {})
        if files.keys() != {round_file(round_index, name) for name in PHASE_FILES[phase]}:
            raise ResumeStateCorrupt(
                f"round {round_index} {phase}: ledger file set does not match layout"
            )
        contents = {}
        for rel_path, digest in files.items():
            data = _read_file(self.root + rel_path)
            if data is None:
                raise ResumeStateCorrupt(f"journaled file missing: {rel_path}")
            if hashlib.sha256(data).hexdigest() != digest:
                raise ResumeStateCorrupt(f"journaled file modified: {rel_path}")
            contents[rel_path] = data
        return contents

    def completed_rounds(self) -> Iterator[RoundState]:
        """Each round from 1 on whose evaluation is journaled, read and
        digest-checked through `phase_done`, up to the first that is not."""
        round_index = 1
        while (contents := self.phase_done(round_index, EVALUATION)) is not None:
            yield load_round_state(round_index, contents)
            round_index += 1

    def record_phase(
        self,
        round_index: int,
        phase: str,
        written: Dict[str, bytes],
        trained: Optional[bool] = None,
    ) -> None:
        """Record the digests of the bytes the phase wrote, given as
        {file name: bytes}, and commit the ledger.

        For the update phase, trained=True also advances the model
        version; the bump and the phase record land in one atomic write,
        so a kill cannot record one without the other.
        """
        names = PHASE_FILES.get(phase)
        if names is None:
            raise ValueError(f"unknown phase: {phase}")
        if written.keys() != set(names):
            raise ValueError(f"{phase} writes {list(names)}, not {sorted(written)}")
        entry: dict = {"files": {
            round_file(round_index, name): hashlib.sha256(data).hexdigest()
            for name, data in written.items()
        }}
        if trained is not None:
            entry["trained"] = bool(trained)
            if trained:
                self._ledger["model_version"] = self.model_version() + 1
        rounds = self._ledger.setdefault("rounds", {})
        rounds.setdefault(str(round_index), {})[phase] = entry
        self._flush()


def fingerprint_inputs(
    config_json: dict,
    train_ids: Iterable[str],
    eval_ids: Iterable[str],
    voice_pool: Iterable[str],
) -> Dict[str, str]:
    """Stable digests identifying a run, used to refuse foreign resumes."""

    def digest(obj) -> str:
        return hashlib.sha256(canonical_payload(obj).encode("utf-8")).hexdigest()

    return {
        "config": digest(config_json),
        "train": digest(list(train_ids)),
        "eval": digest(list(eval_ids)),
        "voices": digest(list(voice_pool)),
    }
