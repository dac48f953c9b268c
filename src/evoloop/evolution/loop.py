"""Round controller: runs phases, journals them, detects convergence.

The loop is resumable at phase granularity. A phase whose output is
journaled (file present, digest matching the ledger) is loaded instead
of re-executed, so a killed run finishes without re-invoking backends
for completed work; an interrupted phase re-runs through the content
cache and converges to the same bytes. The ledger, rewritten after a
fresh step's files, records the digest of the bytes the step wrote, so a
file another process replaced in between fails the next resume.

A resume reads each journaled file once, at its step, and checks its
digest; every parse uses those checked bytes, so a file changed after
its check is never parsed. A phase's rows are parsed only when a later
fresh step uses them: the acquisition manifest when some round refines
afresh, a round's scored rows when its update or evaluation runs
afresh. Each round's `state.json` is always parsed, because the history
and the convergence check need it.
"""

from __future__ import annotations

import functools
import logging
from typing import Callable, List, Optional, Sequence

from ..atomic import write_json, write_jsonl
from ..corpus import Sample, load_manifest, save_manifest
from ..errors import EmptyInput, UpdateHookFailed
from . import journal as journal_mod
from .journal import Journal, fingerprint_inputs
from .phases import (
    empty_positives_warning,
    partition_and_emit,
    run_acquisition,
    run_evaluation,
    run_refinement,
)
from .types import (
    Backends,
    EvolutionConfig,
    Label,
    ModelVersion,
    RoundState,
    RoundStatus,
)

log = logging.getLogger(__name__)

__all__ = [
    "check_convergence",
    "run_loop",
    "run_update_hook",
]


def _status_for(
    deltas: Sequence[float], round_index: int, config: EvolutionConfig
) -> RoundStatus:
    # precedence: Converged, then MaxRounds, then Improved, then Plateau
    tail = deltas[-config.patience:]
    if len(deltas) >= config.patience and all(d < config.epsilon for d in tail):
        return RoundStatus.CONVERGED
    if round_index >= config.max_rounds:
        return RoundStatus.MAX_ROUNDS
    if deltas[-1] >= config.epsilon:
        return RoundStatus.IMPROVED
    return RoundStatus.PLATEAU


def check_convergence(
    history: Sequence[RoundState], config: EvolutionConfig
) -> RoundStatus:
    """Status implied by the delta sequence ending at the latest round."""
    if not history:
        raise EmptyInput("check_convergence requires at least one round")
    deltas = [r.delta_vs_best for r in history]
    return _status_for(deltas, history[-1].round_index, config)


def run_update_hook(hook, jobspec_path: str) -> None:
    """Invoke the external training hook for one emitted JobSpec.

    String hooks are command templates with a {jobspec} placeholder, run
    without a shell; a non-zero exit fails the round. Callables are
    invoked with the path and fail by raising.
    """
    if callable(hook):
        hook(str(jobspec_path))
        return
    import shlex
    import subprocess

    command = str(hook).format(jobspec=shlex.quote(str(jobspec_path)))
    proc = subprocess.run(shlex.split(command))
    if proc.returncode != 0:
        raise UpdateHookFailed(command, proc.returncode)


def _report(on_phase, round_index: int, phase: str, source: str) -> None:
    if source == "journal":
        log.info("round %d %s: loaded from journal", round_index, phase)
    else:
        log.info("round %d %s: executed", round_index, phase)
    if on_phase is not None:
        on_phase(round_index, phase, source)


def _once(load, contents):
    """A getter for `load(contents)`: the first call parses, later calls
    return that value, and the bytes are dropped once parsed."""
    value = None

    def get():
        nonlocal contents, value
        if contents is not None:
            value, contents = load(contents), None
        return value

    return get


def run_loop(
    train_samples: Sequence[Sample],
    eval_samples: Sequence[Sample],
    voice_pool: Sequence[str],
    config: EvolutionConfig,
    backends: Backends,
    workspace: str,
    update_hook=None,
    *,
    version: ModelVersion,
    max_in_flight: int,
    on_phase: Optional[Callable[[int, str, str], None]] = None,
) -> List[RoundState]:
    """Drive rounds until convergence or the round cap.

    `max_in_flight` bounds each phase's fan-out of backend calls; the
    journal does not depend on it. `version` is the stack's model-version
    cell, which keys the translate and score cache entries; it is restored
    from the journal on resume and advanced whenever a round emits a
    JobSpec (the update hook, if any, runs first).
    `on_phase(round_index, phase, source)` fires once per phase, after it
    loads from the journal (`source` "journal") or runs and commits
    ("fresh"); tests raise from it to kill the loop at exact points.

    Acquisition runs once per run: voices depend only on (seed, sample
    id), so every round would synthesize the same clips. It is journaled
    under round 1 and every round refines that manifest.
    """
    train_samples = list(train_samples)
    eval_samples = list(eval_samples)
    if not train_samples:
        raise EmptyInput("run_loop requires train samples")

    jrnl = Journal(workspace)
    fingerprint = fingerprint_inputs(
        config.to_json(),
        [s.id for s in train_samples],
        [s.id for s in eval_samples],
        voice_pool,
    )
    if jrnl.open(fingerprint):
        log.info("resuming journaled run in %s", workspace)
    version.set(jrnl.model_version())

    def step(round_index: int, phase: str, load, run):
        """Check a journaled phase, or run it and journal its files.

        Returns a function that gives the phase's value: a journaled
        phase is parsed by `load`, from the {path: bytes} whose digests the
        journal checked, on the first call, so a value no fresh step asks
        for is never parsed. `run` writes the phase's files and returns
        (value, {file name: bytes written}, trained); `trained` is None
        except for the update phase.
        """
        contents = jrnl.phase_done(round_index, phase)
        if contents is not None:
            get, source = _once(load, contents), "journal"
        else:
            value, written, trained = run()
            jrnl.record_phase(round_index, phase, written, trained=trained)
            get, source = (lambda: value), "fresh"
        _report(on_phase, round_index, phase, source)
        return get

    def evaluate():
        return run_evaluation(
            eval_samples, config, backends.tts, backends.translate, backends.score,
            max_in_flight=max_in_flight,
        )

    # baseline evaluation of the unmodified model anchors round-1 delta
    if jrnl.has_baseline():
        baseline, source = jrnl.baseline(), "journal"
    else:
        baseline, source = evaluate()[0], "fresh"
        jrnl.set_baseline(baseline)
    _report(on_phase, 0, "baseline", source)

    root = jrnl.root
    acq_rel = journal_mod.round_file(1, "acquisition.jsonl")
    acq_path = root + acq_rel

    def acquire():
        acquired = run_acquisition(
            train_samples, voice_pool, config, backends.tts, max_in_flight=max_in_flight
        )
        data = save_manifest(acquired, acq_path)
        return acquired, {"acquisition.jsonl": data}, None

    def load_acquired(contents):
        return load_manifest(acq_path, strict=True, data=contents[acq_rel])

    acquired = step(1, journal_mod.ACQUISITION, load_acquired, acquire)

    history: List[RoundState] = []
    for k in range(1, config.max_rounds + 1):
        rdir = f"{root}{journal_mod.ROUNDS_DIR}/{k}"
        scored_rel = journal_mod.round_file(k, "scored.jsonl")
        state_rel = journal_mod.round_file(k, "state.json")
        scored_path, state_path = root + scored_rel, root + state_rel

        def refine():
            scored = run_refinement(
                acquired(), config, backends.translate, backends.score,
                max_in_flight=max_in_flight,
            )
            data = write_jsonl(scored_path, (s.to_json() for s in scored))
            return scored, {"scored.jsonl": data}, None

        def load_scored(contents):
            return load_manifest(scored_path, strict=True, data=contents[scored_rel])

        scored = step(k, journal_mod.REFINEMENT, load_scored, refine)

        def update():
            part = partition_and_emit(scored(), k, rdir, workspace=workspace)
            trained = part.jobspec is not None
            if trained and update_hook is not None:
                run_update_hook(update_hook, f"{rdir}/jobspec.json")
            return None, part.written, trained

        step(k, journal_mod.UPDATE, lambda contents: None, update)
        version.set(jrnl.model_version())

        def evaluate_round():
            rows = scored()
            n_positive = sum(1 for s in rows if s.verdict.label is Label.POSITIVE)
            n_negative = len(rows) - n_positive
            eval_score, by_direction = evaluate()
            best = max([baseline] + [r.eval_score for r in history])
            delta = eval_score - best
            state = RoundState(
                round_index=k,
                acquisition_manifest=acq_rel,
                positives_manifest=journal_mod.round_file(k, "positives.jsonl"),
                negatives_manifest=journal_mod.round_file(k, "negatives.jsonl"),
                n_positive=n_positive,
                n_negative=n_negative,
                eval_score=eval_score,
                delta_vs_best=delta,
                status=_status_for([r.delta_vs_best for r in history] + [delta], k, config),
                eval_by_direction=by_direction,
                warnings=() if n_positive else (empty_positives_warning(k),),
            )
            data = write_json(state_path, state.to_json())
            return state, {"state.json": data}, None

        load_state = functools.partial(journal_mod.load_round_state, k)
        state = step(k, journal_mod.EVALUATION, load_state, evaluate_round)()
        history.append(state)
        log.info(
            "round %d: n_pos=%d n_neg=%d eval=%.4f delta=%+.4f %s",
            k, state.n_positive, state.n_negative,
            state.eval_score, state.delta_vs_best, state.status.value,
        )
        if state.status in (RoundStatus.CONVERGED, RoundStatus.MAX_ROUNDS):
            break

    return history
