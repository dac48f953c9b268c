"""The workloads: inputs, set-up, one measured cycle, output checks.

A cycle is a cold run (empty workspace and cache), a batch of replays
over the finished artifacts, and a warm run (cache full, nothing
journaled); its workspace stays until the run ends. Each
run and each replay is one operation: it fails when the program raises
or exits non-zero, or when an output check does not hold. Either also
marks the run's outputs as incorrect.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench"
JOURNALED = ("journal.json", "rounds")


def footprint(path: Path):
    """Files, directories and allocated bytes (st_blocks) under path."""
    files = dirs = 0
    size = os.lstat(path).st_blocks * 512
    for dirpath, dirnames, names in os.walk(path):
        dirs += len(dirnames)
        files += len(names)
        for name in dirnames + names:
            size += os.lstat(os.path.join(dirpath, name)).st_blocks * 512
    return files, dirs, size


def snapshot(ws: Path, names) -> dict:
    """Bytes of every file under the given workspace entries."""
    out = {}
    for name in names:
        top = ws / name
        paths = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
        for p in paths:
            out[p.relative_to(ws).as_posix()] = p.read_bytes()
    return out


def timed(name, tracer, fn):
    """Wall and process CPU seconds of fn(), after a full collection.

    Files written before are flushed first, so their writeback does not
    fall into the timed part.
    """
    if tracer is not None:
        tracer.stage = name
    os.sync()
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    fn()
    return time.perf_counter() - t0, time.process_time() - c0


def call_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"evoloop {argv[0]} exited with {code}")
    return out.getvalue()


@dataclass
class Cycle:
    cold_s: float = 0.0
    cold_cpu_s: float = 0.0
    warm_s: float = 0.0  # shown in the summary; see README, "End-to-end metrics"
    replay_s: float = 0.0  # per replay
    cold_ok: bool = False  # the cold run ended and passed its checks
    requests: int = 0
    files: int = 0
    dirs: int = 0
    bytes: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)  # errors and failed output checks
    service: dict = field(default_factory=dict)


class Op:
    """One operation: its result, its error and its failed checks."""

    def __init__(self, cycle: Cycle, name: str):
        self.cycle, self.name = cycle, name
        self.value = None
        self.errors = []
        self.wrong = []

    def call(self, fn, *args):
        try:
            self.value = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a program failure is a result
            self.errors.append(f"{type(exc).__name__}: {exc}")

    @property
    def ok(self) -> bool:
        return not self.errors

    @contextlib.contextmanager
    def checking(self):
        """Output that cannot be read fails the check instead of the run."""
        try:
            yield
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.wrong.append(f"unreadable output: {type(exc).__name__}: {exc}")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.wrong.append(message)

    def close(self) -> None:
        self.cycle.attempted += 1
        if self.errors or self.wrong:
            self.cycle.failed += 1
            for message in self.errors + self.wrong:
                print(f"{self.name}: {message}", file=sys.stderr)
        self.cycle.wrong += [f"{self.name}: {m}" for m in self.errors + self.wrong]


class Workload:
    name = ""
    replays = 1  # replays per cycle, timed together

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        # one directory per workload, with every cycle's workspace, removed
        # by close(); what an interrupted run left there goes first
        self.work = root / WORK_DIR / self.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = self.work / "inputs"
        self.cli = None
        self._stacks = []

    # --- inputs and set-up ---------------------------------------------------

    def prepare(self) -> None:
        """Write the seeded inputs and the expected outputs; not timed."""
        raise NotImplementedError

    def input_files(self) -> list:
        """(kind, path) pairs the set-up loads: kind is manifest or pieces."""
        raise NotImplementedError

    def setup(self) -> float:
        """One set-up, timed inside a fresh interpreter."""
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(self.root / "src")]
        argv += [f"{kind}={path}" for kind, path in self.input_files()]
        done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        return float(done.stdout)

    def open(self) -> None:
        """Import the program in this process and count the mocks it builds."""
        self.cli = cli = importlib.import_module("evoloop.cli")
        build = cli.build_mock_stack

        def capture(*args, **kwargs):  # keeps the mocks' own request counters
            stack = build(*args, **kwargs)
            self._stacks.append(stack)
            return stack

        cli.build_mock_stack = capture
        self._build_mock_stack = build

    def close(self) -> None:
        if self.cli is not None:
            self.cli.build_mock_stack = self._build_mock_stack
        shutil.rmtree(self.work, ignore_errors=True)

    # --- one cycle ---------------------------------------------------------------

    def execute(self, ws: Path):
        """The cold and warm run; returns what the program printed or returned."""
        raise NotImplementedError

    def replay(self, ws: Path):
        return self.execute(ws)

    def set_aside(self, ws: Path) -> None:
        """Prepare the warm run: keep the cache, drop what is journaled."""

    def artifacts(self, ws: Path, stage: str) -> dict:
        """Files a replay or warm run must leave as the cold run left them."""
        raise NotImplementedError

    def check_cold(self, op: Op, ws: Path, cycle: Cycle) -> None:
        raise NotImplementedError

    def mark(self):
        self._stacks.clear()

    def served(self, mark, cycle: Cycle) -> int:
        """Backend requests since mark()."""
        total = sum(backend.calls.count for stack in self._stacks
                    for backend in (stack.tts_backend, stack.translate_backend,
                                    stack.score_backend))
        self._stacks.clear()
        return total

    def cycle(self, index: int, tracer=None) -> Cycle:
        cycle = Cycle()
        ws = self.work / f"c{index}"

        cold = Op(cycle, "cold")
        mark = self.mark()
        cycle.cold_s, cycle.cold_cpu_s = timed("cold", tracer,
                                               lambda: cold.call(self.execute, ws))
        cycle.requests = self.served(mark, cycle)
        cold_files = None
        if cold.ok:
            with cold.checking():
                cycle.files, cycle.dirs, cycle.bytes = footprint(ws)
                cold.check(cycle.requests == self.expected_requests,
                           f"{cycle.requests} backend requests, "
                           f"expected {self.expected_requests}")
                self.check_cold(cold, ws, cycle)
                cold_files = self.artifacts(ws, "cold")
        cycle.cold_ok = cold.ok and not cold.wrong
        cold.close()

        ops = [Op(cycle, "replay") for _ in range(self.replays)]
        mark = self.mark()
        total, _ = timed("replay", tracer,
                         lambda: [op.call(self.replay, ws) for op in ops])
        cycle.replay_s = total / len(ops)
        self.compare(ops, self.served(mark, cycle), ws, cold, cold_files)

        if cold_files is not None:
            self.set_aside(ws)
        warm = Op(cycle, "warm")
        mark = self.mark()
        cycle.warm_s, _ = timed("warm", tracer, lambda: warm.call(self.execute, ws))
        self.compare([warm], self.served(mark, cycle), ws, cold, cold_files)
        # the workspace stays until close(): removing files on the measuring
        # volume slows the file creation that follows (README, "Workspaces")
        return cycle

    def compare(self, ops, requests, ws, cold, cold_files) -> None:
        """Replays and warm runs send nothing and reproduce the cold run."""
        try:
            files = self.artifacts(ws, ops[0].name)
        except OSError as exc:
            files = f"unreadable: {exc}"
        for op in ops:
            if op.ok:
                op.check(cold_files is not None, "no cold run to compare with")
                op.check(requests == 0, f"sent {requests} backend requests")
                op.check(op.value == cold.value, "output differs from the cold run's")
                op.check(files == cold_files, "artifacts differ from the cold run's")
            op.close()


# --- loop ----------------------------------------------------------------------

class Stub:
    """The stub model service, a child process for the workload's lifetime."""

    def __init__(self):
        # the stub exits when its standard input closes, so it cannot
        # outlive this process even if this one is killed
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_service.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        line = self.proc.stdout.readline()
        if not line.strip():
            self.stop()
            raise RuntimeError("stub service did not start")
        self.port = int(line)
        self.url = f"http://127.0.0.1:{self.port}"

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class LoopHttp(Workload):
    """run_loop over the three clients on HttpTransport against the stub."""

    name = "loop-http"
    replays = 100
    voices = ("voice-a", "voice-b", "voice-c", "voice-d", "voice-e")
    rounds = 4
    patience = 2
    max_in_flight = 2
    epsilon = 0.001

    def __init__(self, root, seed, n_train=32, n_eval=16):
        super().__init__(root, seed)
        self.n_train, self.n_eval = n_train, n_eval
        self.stub = None

    def prepare(self):
        train, eval_rows = inputs.loop_corpus(self.seed, self.n_train, self.n_eval)
        inputs.write_jsonl(self.inputs / "train.jsonl", train)
        inputs.write_jsonl(self.inputs / "eval.jsonl", eval_rows)
        self.texts = {r["id"]: (r["text"], r["reference"]) for r in train}
        scores = [checks.token_f1(r["text"], r["reference"]) for r in eval_rows]
        self.baseline = sum(scores) / len(scores)
        # eval never moves, so the loop converges after `patience` rounds
        self.statuses = checks.round_statuses(
            self.baseline, [self.baseline] * self.rounds,
            self.epsilon, self.patience, self.rounds)
        self.expected_requests = checks.loop_requests(self.n_train, self.n_eval,
                                                      len(self.statuses))

    def input_files(self):
        return [("manifest", self.inputs / "train.jsonl"),
                ("manifest", self.inputs / "eval.jsonl")]

    def scores(self, sample_id):
        """s1 (text-only) and s2 (speech-guided) of a train sample."""
        text, reference = self.texts[sample_id]
        return (checks.token_f1(checks.drop_last(text), reference),
                checks.token_f1(text, reference))

    def set_aside(self, ws):
        for name in JOURNALED:
            (ws / name).rename(ws / f"aside.{name}")

    def artifacts(self, ws, stage):
        return snapshot(ws, JOURNALED)

    def open(self):
        super().open()
        self.train = self.cli.load_manifest(self.inputs / "train.jsonl")
        self.eval = self.cli.load_manifest(self.inputs / "eval.jsonl")
        self.stub = Stub()

    def close(self):
        if self.stub is not None:
            self.stub.stop()
            self.stub = None
        super().close()

    def execute(self, ws):
        m = importlib.import_module
        clients = m("evoloop.backends.clients")
        evolution = m("evoloop.evolution")
        transport = m("evoloop.backends.transport").HttpTransport
        cache = m("evoloop.backends.cache").ContentCache(ws / "cache")
        version = evolution.ModelVersion(0)
        backends = evolution.Backends(
            tts=clients.TtsClient(transport(self.stub.url), cache),
            translate=clients.TranslateClient(transport(self.stub.url), cache,
                                              namespace=version.namespace),
            score=clients.ScoreClient(transport(self.stub.url), cache,
                                      namespace=version.namespace),
        )
        config = evolution.EvolutionConfig(
            epsilon=self.epsilon, patience=self.patience, max_rounds=self.rounds,
            seed=self.seed, fixed_eval_voice=self.voices[0])
        history = evolution.run_loop(
            self.train, self.eval, list(self.voices), config, backends, str(ws),
            version=version, max_in_flight=self.max_in_flight)
        return [state.to_json() for state in history]

    def mark(self):
        return self.stub.stats()

    def served(self, mark, cycle):
        after = self.stub.stats()
        service = cycle.service
        service["requests"] = service.get("requests", 0) + after["requests"] - mark["requests"]
        service["busy_s"] = service.get("busy_s", 0.0) + after["busy_s"] - mark["busy_s"]
        self.peak = after["peak_in_flight"]
        service["peak_in_flight"] = max(service.get("peak_in_flight", 0), self.peak)
        return after["requests"] - mark["requests"]

    def check_cold(self, op, ws, cycle):
        op.check(self.peak <= self.max_in_flight,
                 f"{self.peak} requests in flight, limit {self.max_in_flight}")
        ledger = json.loads((ws / "journal.json").read_text(encoding="utf-8"))
        op.check(checks.close(ledger["baseline"], self.baseline),
                 f"baseline {ledger['baseline']} != {self.baseline}")
        got = []
        for k in range(1, len(self.statuses) + 1):
            rdir = ws / "rounds" / str(k)
            state = json.loads((rdir / "state.json").read_text(encoding="utf-8"))
            got.append(state["status"])
            want = self.baseline  # the stub ignores the model version
            op.check(checks.close(state["eval_score"], want),
                     f"round {k} eval {state['eval_score']} != {want}")
            by_dir = list(state["eval_by_direction"].values())
            op.check(len(by_dir) == 1 and checks.close(by_dir[0], want),
                     f"round {k} eval_by_direction {by_dir} != [{want}]")
            op.check(state["n_positive"] == self.n_train and state["n_negative"] == 0,
                     f"round {k} positives/negatives "
                     f"{state['n_positive']}/{state['n_negative']}")
            rows = [json.loads(line) for line in
                    (rdir / "scored.jsonl").read_text(encoding="utf-8").splitlines()]
            op.check(len(rows) == self.n_train, f"round {k}: {len(rows)} scored rows")
            bad = [r["id"] for r in rows
                   if r["label"] != "Positive"
                   or not all(checks.close(a, b) for a, b in
                              zip((r["s1"], r["s2"]), self.scores(r["id"])))]
            op.check(not bad, f"round {k}: {len(bad)} scored rows off, first {bad[:1]}")
        op.check(got == self.statuses, f"statuses {got} != {self.statuses}")
        op.check(not (ws / "rounds" / str(len(self.statuses) + 1)).exists(),
                 f"loop ran past round {len(self.statuses)}")


# --- evaluate ------------------------------------------------------------------

class EvaluateFlores(Workload):
    """`evoloop evaluate --mock --piece-table` over FLORES-sized directions."""

    name = "evaluate-flores"
    replays = 100

    def __init__(self, root, seed, lines=1012):
        super().__init__(root, seed)
        self.lines = lines

    def prepare(self):
        manifest, hyps, table = inputs.flores_inputs(self.seed, self.lines)
        inputs.write_jsonl(self.inputs / "devtest.jsonl", manifest)
        inputs.write_jsonl(self.inputs / "hyp.jsonl", hyps)
        inputs.write_piece_table(self.inputs / "pieces.tsv", table)
        hyp_of = {h["id"]: h["text"] for h in hyps}
        pairs = {}
        for row in manifest:
            key = (row["src_lang"], row["tgt_lang"])
            pairs.setdefault(key, []).append((hyp_of[row["id"]], row["reference"]))
        self.expected = {
            key: (checks.spbleu([h for h, _ in p], [r for _, r in p]),
                  sum(checks.token_f1(h, r) for h, r in p) / len(p) * 100.0,
                  len(p))
            for key, p in pairs.items()
        }
        self.expected_requests = len(manifest)  # one COMET score per line

    def input_files(self):
        return [("manifest", self.inputs / "devtest.jsonl"),
                ("pieces", self.inputs / "pieces.tsv")]

    def execute(self, ws):
        return call_cli(self.cli, [
            "evaluate", self.inputs / "devtest.jsonl", "--hyp", self.inputs / "hyp.jsonl",
            "--piece-table", self.inputs / "pieces.tsv", "--mock", "--workspace", ws])

    def replay(self, ws):
        return call_cli(self.cli, [
            "evaluate", "--direction-scores", ws / "reports" / "evaluate.json",
            "--workspace", ws, "--report", ws / "reports" / "replay.json"])

    def artifacts(self, ws, stage):
        name = "replay.json" if stage == "replay" else "evaluate.json"
        return {"report": (ws / "reports" / name).read_bytes()}

    def check_cold(self, op, ws, cycle):
        report = json.loads((ws / "reports" / "evaluate.json").read_text(encoding="utf-8"))
        rows = {tuple(r["direction"]): r for r in report["rows"]}
        op.check(set(rows) == set(self.expected),
                 f"directions {sorted(rows)} != {sorted(self.expected)}")
        for key, (spbleu, comet, n) in self.expected.items():
            row = rows.get(key)
            if row is None:
                continue
            op.check(checks.close(row["spbleu"], spbleu),
                     f"{key} spBLEU {row['spbleu']} != {spbleu}")
            op.check(checks.close(row["comet"], comet), f"{key} COMET {row['comet']} != {comet}")
            op.check(row["n_samples"] == n, f"{key} n_samples {row['n_samples']} != {n}")
        identical = inputs.EVAL_DIRECTIONS[0]
        if identical in rows:
            op.check(rows[identical]["spbleu"] == 100.0,
                     f"{identical} hypotheses equal their references but scored "
                     f"{rows[identical]['spbleu']}, not 100")


WORKLOADS = {w.name: w for w in (LoopHttp, EvaluateFlores)}
