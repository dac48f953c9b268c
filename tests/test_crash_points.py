"""A loop killed at any point resumes to the uninterrupted run's journal.

One 3-round mock loop runs uninterrupted and records the order of its
steps and the backend calls each step completed. Every other case kills a
fresh run once, either right after a step commits (by raising from
`on_phase`) or in the middle of a fanned-out phase (a backend raises a
`BaseException` on its k-th call of that step), then resumes in the same
workspace with a fresh stack. The resumed journal must match byte for
byte, and no backend call may be repeated: completed calls over both runs
add up to the uninterrupted run's.
"""

import threading
from collections import Counter
from pathlib import Path

import pytest

from evoloop.backends.clients import ScoreClient, TranslateClient, TtsClient
from evoloop.backends.mock import LookupTranslator
from evoloop.corpus import Sample
from evoloop.evolution import Backends, EvolutionConfig, RoundStatus, run_loop
from evoloop.mockstack import build_mock_stack

POOL = ["voice-a", "voice-b", "voice-c"]
SCHEDULE = [0.800, 0.819, 0.839, 0.856]


class Crash(BaseException):
    """Stands in for a kill: no `except Exception` error channel catches it."""


class Meter:
    """Counts completed backend calls per endpoint and per loop step.

    The step in progress is the one after the last step `on_phase`
    reported. With `kill_call=(step, k)`, the k-th call started during that
    step raises Crash instead of reaching the backend.
    """

    def __init__(self, steps=None, kill_call=None):
        self.lock = threading.Lock()
        self.steps = steps
        self.kill_call = kill_call
        self.reported = []
        self.started = Counter()
        self.done = Counter()
        self.done_by_step = Counter()
        self.hook_runs = 0

    def on_phase(self, round_index, phase, source):
        self.reported.append((round_index, phase, source))

    def current(self):
        return len(self.reported)

    def call(self, endpoint, method, payload):
        with self.lock:
            step = self.current()
            self.started[step] += 1
            if self.kill_call == (step, self.started[step]):
                raise Crash(f"killed at call {self.started[step]} of step {step}")
        response = method(payload)
        with self.lock:
            self.done[endpoint] += 1
            self.done_by_step[step] += 1
        return response

    def hook(self, jobspec_path):
        self.hook_runs += 1


class Metered:
    """A backend whose every call goes through the meter."""

    def __init__(self, backend, endpoint, meter):
        self._backend, self._endpoint, self._meter = backend, endpoint, meter

    def __getattr__(self, name):
        method = getattr(self._backend, name)
        return lambda payload: self._meter.call(self._endpoint, method, payload)


def run(ws, meter, on_phase=None):
    train = [
        Sample.build("eng", "khm", f"w{i} x{i} y{i} z{i}", f"w{i} x{i} y{i} z{i}")
        for i in range(5)
    ]
    evals = [
        Sample.build("eng", "lao", f"e{i} f{i} g{i} h{i}", f"e{i} f{i} g{i} h{i}")
        for i in range(3)
    ]
    outputs = {}
    for s in train + evals:
        outputs[("smt", s.text)] = s.reference
        outputs[("mt", s.text)] = " ".join(s.reference.split()[:-1])
    stack = build_mock_stack(
        str(ws), translator=LookupTranslator(outputs), eval_schedule=SCHEDULE
    )
    backends = Backends(
        tts=TtsClient(Metered(stack.tts_backend, "tts", meter), stack.cache),
        translate=TranslateClient(
            Metered(stack.translate_backend, "translate", meter), stack.cache,
            namespace=stack.version.namespace,
        ),
        score=ScoreClient(
            Metered(stack.score_backend, "score", meter), stack.cache,
            namespace=stack.version.namespace,
        ),
    )
    config = EvolutionConfig(
        epsilon=0.001, patience=1, max_rounds=3, seed=5, fixed_eval_voice="narrator"
    )

    def observe(round_index, phase, source):
        meter.on_phase(round_index, phase, source)
        if on_phase is not None:
            on_phase(round_index, phase, source)

    return run_loop(
        train, evals, POOL, config, backends, str(ws),
        update_hook=meter.hook, version=stack.version,
        max_in_flight=stack.max_in_flight, on_phase=observe,
    )


def journal_tree(ws):
    return {
        str(p.relative_to(ws)): p.read_bytes()
        for p in sorted(Path(ws).rglob("*"))
        if p.is_file() and "cache" not in p.parts and "audio" not in p.parts
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    ws = tmp_path_factory.mktemp("uninterrupted")
    meter = Meter()
    history = run(ws, meter)
    assert [s.status for s in history][-1] is RoundStatus.MAX_ROUNDS
    assert all(source == "fresh" for _, _, source in meter.reported)
    return journal_tree(ws), meter


# every step the uninterrupted run reports: baseline, acquisition once,
# then refinement, update and evaluation in each of the 3 rounds
N_STEPS = 11
# steps that fan out backend calls (update calls none)
FANNED = [0, 1, 2, 4, 5, 7, 8, 10]


def test_reference_run_shape(reference):
    _, meter = reference
    assert [(k, phase) for k, phase, _ in meter.reported] == [
        (0, "baseline"), (1, "acquisition"),
        (1, "refinement"), (1, "update"), (1, "evaluation"),
        (2, "refinement"), (2, "update"), (2, "evaluation"),
        (3, "refinement"), (3, "update"), (3, "evaluation"),
    ]
    assert sorted(s for s, n in meter.done_by_step.items() if n) == FANNED
    assert meter.hook_runs == 3


def resume_and_compare(tmp_path, reference, killed):
    tree, full = reference
    resumed = Meter()
    run(tmp_path, resumed)
    assert journal_tree(tmp_path) == tree
    assert killed.done + resumed.done == full.done
    assert killed.hook_runs + resumed.hook_runs == full.hook_runs
    sources = [source for _, _, source in resumed.reported]
    assert sources == ["journal"] * killed.current() + ["fresh"] * (N_STEPS - killed.current())
    return resumed


@pytest.mark.parametrize("step", range(N_STEPS))
def test_kill_after_step(tmp_path, reference, step):
    killed = Meter()

    def kill(round_index, phase, source):
        if killed.current() == step + 1:
            raise Crash(f"killed after {phase} of round {round_index}")

    with pytest.raises(Crash):
        run(tmp_path, killed, on_phase=kill)
    resumed = resume_and_compare(tmp_path, reference, killed)
    _, full = reference
    acquired = step >= 1
    # once acquisition is journaled, no synthesis request is ever sent again
    expected_tts = 0 if acquired else full.done_by_step[1]
    assert resumed.done["tts"] == expected_tts


@pytest.mark.parametrize("step", FANNED)
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_kill_mid_phase(tmp_path, reference, step, where):
    _, full = reference
    n = full.done_by_step[step]
    k = {"first": 1, "middle": (n + 1) // 2, "last": n}[where]
    killed = Meter(kill_call=(step, k))
    with pytest.raises(Crash):
        run(tmp_path, killed)
    assert killed.current() == step
    resume_and_compare(tmp_path, reference, killed)
