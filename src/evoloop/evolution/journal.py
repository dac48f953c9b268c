"""Write-ahead journal for loop runs.

Every phase output lands in `rounds/<k>/` and is fingerprinted in a
single ledger file (`journal.json`) at the workspace root. Acquisition
runs once per run, so only `rounds/1/` holds its manifest. A resumed run
trusts a phase only when the ledger entry exists and the file bytes
still hash to the recorded digest; anything else inside a recorded entry
is treated as corruption rather than silently recomputed.

All writes, the ledger's and every phase file's, go through
`atomic.write_atomic` (temp file plus rename), so a kill can never leave
a half-written journal, and all recorded paths are workspace-relative so two
runs in different directories produce byte-identical trees.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from ..atomic import write_atomic
from ..backends.cache import canonical_payload
from ..errors import ResumeStateCorrupt

__all__ = ["Journal", "PHASE_FILES", "round_file", "write_json"]

LEDGER_NAME = "journal.json"
# 2: acquisition journaled once, under round 1
LEDGER_FORMAT = 2
ROUNDS_DIR = "rounds"

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


def _phase_files(round_index: int, phase: str) -> List[str]:
    return [round_file(round_index, name) for name in PHASE_FILES[phase]]


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(path: Path, obj) -> None:
    """Write obj as sorted, indented JSON through a temp file and a rename."""
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    write_atomic(path, text.encode("utf-8"))


class Journal:
    def __init__(self, workspace: str):
        self.workspace = Path(workspace)
        self.ledger_path = self.workspace / LEDGER_NAME
        self._ledger: dict = {}

    # --- ledger lifecycle ---------------------------------------------

    def open(self, fingerprint: Dict[str, str]) -> bool:
        """Load or create the ledger. Returns True when resuming.

        A ledger recorded under a different config or input set cannot be
        resumed; that is corruption from the loop's point of view, not a
        fresh start, because silently recomputing would mix artifacts
        from two different runs in one workspace.
        """
        self.workspace.mkdir(parents=True, exist_ok=True)
        if self.ledger_path.exists():
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

    def _flush(self) -> None:
        write_json(self.ledger_path, self._ledger)

    # --- paths ----------------------------------------------------------

    def round_dir(self, round_index: int) -> Path:
        return self.workspace / ROUNDS_DIR / str(round_index)

    # --- baseline and version -------------------------------------------

    def has_baseline(self) -> bool:
        return "baseline" in self._ledger

    def baseline(self) -> float:
        return float(self._ledger["baseline"])

    def set_baseline(self, eval_score: float) -> None:
        self._ledger["baseline"] = float(eval_score)
        self._flush()

    def model_version(self) -> int:
        return int(self._ledger.get("model_version", 0))

    # --- phases -----------------------------------------------------------

    def phase_done(self, round_index: int, phase: str) -> bool:
        entry = self._ledger.get("rounds", {}).get(str(round_index), {}).get(phase)
        if entry is None:
            return False
        files = entry.get("files", {})
        if set(files) != set(_phase_files(round_index, phase)):
            raise ResumeStateCorrupt(
                f"round {round_index} {phase}: ledger file set does not match layout"
            )
        for rel_path, digest in files.items():
            path = self.workspace / rel_path
            if not path.is_file():
                raise ResumeStateCorrupt(f"journaled file missing: {rel_path}")
            if _sha256_file(path) != digest:
                raise ResumeStateCorrupt(f"journaled file modified: {rel_path}")
        return True

    def record_phase(
        self,
        round_index: int,
        phase: str,
        trained: Optional[bool] = None,
    ) -> None:
        """Fingerprint the phase's on-disk outputs and commit the ledger.

        For the update phase, trained=True also advances the model
        version; the bump and the phase record land in one atomic write,
        so a kill cannot record one without the other.
        """
        if phase not in PHASE_FILES:
            raise ValueError(f"unknown phase: {phase}")
        files = {}
        for rel_path in _phase_files(round_index, phase):
            path = self.workspace / rel_path
            if not path.is_file():
                raise FileNotFoundError(f"phase output not written: {path}")
            files[rel_path] = _sha256_file(path)
        entry: dict = {"files": files}
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
