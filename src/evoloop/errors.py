"""Exception types shared across the engine.

Exit-code mapping in the CLI: EvoloopError and subclasses are domain/validation
failures (exit 1); plain OSError/IOError and config problems map to exit 2.
"""

from __future__ import annotations


class EvoloopError(Exception):
    """Base class for all engine-level failures."""


# --- corpus ---------------------------------------------------------------

class MalformedLine(EvoloopError):
    def __init__(self, line_no: int, detail: str = ""):
        self.line_no = line_no
        self.detail = detail
        super().__init__(f"line {line_no}: malformed JSON{': ' + detail if detail else ''}")


class UnknownLanguage(EvoloopError):
    def __init__(self, code: str, line_no: int | None = None):
        self.code = code
        self.line_no = line_no
        at = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"unknown language code {code!r}{at}")


class EmptyField(EvoloopError):
    def __init__(self, field: str, line_no: int | None = None):
        self.field = field
        self.line_no = line_no
        at = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"field {field!r} is empty{at}")


class IdMismatch(EvoloopError):
    def __init__(self, line_no: int, stored: str, computed: str):
        self.line_no = line_no
        self.stored = stored
        self.computed = computed
        super().__init__(
            f"line {line_no}: stored id {stored} != recomputed id {computed}"
        )


class UnknownField(EvoloopError):
    def __init__(self, field: str, line_no: int | None = None):
        self.field = field
        self.line_no = line_no
        at = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"unknown manifest field {field!r}{at}")


# --- metrics --------------------------------------------------------------

class LengthMismatch(EvoloopError):
    def __init__(self, n_hypotheses: int, n_references: int):
        self.n_hypotheses = n_hypotheses
        self.n_references = n_references
        super().__init__(
            f"{n_hypotheses} hypotheses vs {n_references} references"
        )


class EmptyCorpus(EvoloopError):
    def __init__(self):
        super().__init__("no hypothesis/reference pairs to score")


class EmptyInput(EvoloopError):
    pass


class PieceTableError(EvoloopError):
    pass


# --- backends -------------------------------------------------------------

class BackendError(EvoloopError):
    """Base for failures raised by backend clients."""


class TransientBackendError(BackendError):
    """Retryable failure: connection refused, timeout, 5xx, 408 or 429."""


class PermanentBackendError(BackendError):
    """Non-retryable rejection: a 3xx, a 4xx but 408 and 429, or a bad 2xx body."""

    def __init__(self, status: int, error: str = "", detail: str = ""):
        self.status = status
        self.error = error
        self.detail = detail
        super().__init__(f"HTTP {status}: {error or 'error'}"
                         + (f" ({detail})" if detail else ""))


class BackendUnavailable(BackendError):
    """All retry attempts exhausted against a backend endpoint."""

    def __init__(self, endpoint: str, attempts: int, last_error: str = ""):
        self.endpoint = endpoint
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"{endpoint}: unavailable after {attempts} attempt(s)"
            + (f" ({last_error})" if last_error else "")
        )


class SynthesisRejected(BackendError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"synthesis rejected: {reason}")


class DurationOverrun(BackendError):
    """Synthesized clip exceeded the duration ceiling; carries the clip."""

    def __init__(self, audio, limit_s: float):
        self.audio = audio
        self.limit_s = limit_s
        super().__init__(
            f"synthesized {audio.duration_s:.1f}s exceeds {limit_s:.0f}s ceiling"
        )


class ModeAudioMismatch(BackendError):
    pass


class EmptyTranslation(BackendError):
    pass


class ScoreOutOfRange(BackendError):
    def __init__(self, value: float):
        self.value = value
        super().__init__(f"scorer returned {value!r}, outside [0, 1]")


class FailureBudgetExceeded(BackendError):
    def __init__(self, failed: int, total: int, budget: float):
        self.failed = failed
        self.total = total
        self.budget = budget
        super().__init__(
            f"{failed}/{total} requests failed after retries "
            f"(budget {budget:.0%})"
        )


# --- evolution ------------------------------------------------------------

class MissingAudio(EvoloopError):
    pass


class EmptyEvalSet(EvoloopError):
    pass


class ResumeStateCorrupt(EvoloopError):
    pass


class UpdateHookFailed(EvoloopError):
    def __init__(self, command: str, returncode: int):
        self.command = command
        self.returncode = returncode
        super().__init__(f"update hook exited {returncode}: {command}")


# --- curriculum -----------------------------------------------------------

class MissingBinding(EvoloopError):
    def __init__(self, stage: str):
        self.stage = stage
        super().__init__(f"no dataset binding for stage {stage}")


class MissingManifest(EvoloopError):
    pass


# --- cli ------------------------------------------------------------------

class MissingHypotheses(EvoloopError):
    pass


class NoRounds(EvoloopError):
    pass
