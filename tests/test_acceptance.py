"""Release acceptance gate.

Each shipping criterion is a single test function, so a verbose run
prints exactly one pass/fail line per criterion. Everything here runs
offline: a module-wide guard refuses socket connections for the whole
file, and the final test proves the guard was live and that the gate
stayed inside its time budget.
"""

import json
import random
import socket
import time
from dataclasses import replace
from pathlib import Path

import pytest

from evoloop.backends.mock import LookupTranslator
from evoloop.cli import main as cli_main
from evoloop.corpus import Sample, Verdict, load_manifest
from evoloop.curriculum import ADAPTER_META, Stage, Trainable, plan_stages
from evoloop.evolution import (
    EvolutionConfig,
    Label,
    RoundStatus,
    SpeechUsed,
    label_for,
    partition_and_emit,
    run_loop,
)
from evoloop.metrics import (
    DirectionScore,
    PieceTable,
    average_directions,
    corpus_bleu,
    sp_segment_spans,
)
from evoloop.metrics.spm import SPACE_MARKER, normalize_for_pieces
from evoloop.mockstack import build_mock_stack

from test_bleu import oracle_bleu_unsmoothed, random_corpus
from test_spm import exhaustive_best_score

ROOT = Path(__file__).resolve().parent.parent
REPORT_FIXTURES = ROOT / "fixtures" / "reports"
BLEU_FIXTURES = ROOT / "fixtures" / "bleu"

POOL = ("voice-a", "voice-b", "voice-c", "voice-d", "voice-e")

# gains +0.019, +0.020, then +0.0005: converges on the third round
SCHEDULE_3R = [0.800, 0.819, 0.839, 0.8395]
# gains +0.019, +0.020, +0.017, then +0.0005: converges on the fourth
SCHEDULE_4R = "0.800,0.819,0.839,0.856,0.8565"

_T0 = time.monotonic()
TIMINGS = {}

# every loop workspace this gate creates; the purity scan walks them all
WORKSPACES = []


@pytest.fixture(autouse=True, scope="module")
def _offline_guard():
    mp = pytest.MonkeyPatch()

    def deny(self, *args, **kwargs):
        raise AssertionError("socket connect attempted during offline acceptance run")

    mp.setattr(socket.socket, "connect", deny)
    yield
    mp.undo()


class timed:
    def __init__(self, key):
        self.key = key

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        TIMINGS[self.key] = time.monotonic() - self.t0
        return False


def _fixture_doc(name):
    with open(REPORT_FIXTURES / name, encoding="utf-8") as fh:
        return json.load(fh)


def _system_rows(doc, system):
    return [
        DirectionScore(tuple(r["direction"]), r["spbleu"], r["comet"], n_samples=1)
        for r in doc["systems"][system]["rows"]
    ]


def test_reported_table_averages_reproduce():
    """Per-direction fixture rows aggregate back to the published Avg cells."""
    with timed("tables"):
        flores = _fixture_doc("flores200.json")
        wmt = _fixture_doc("wmt24pp.json")
        assert flores["n_directions"] == 108 and len(flores["systems"]) == 6
        assert wmt["n_directions"] == 22 and len(wmt["systems"]) == 6
        got = {
            ("flores200", "smt-9b"): average_directions(_system_rows(flores, "smt-9b")),
            ("flores200", "baseline"): average_directions(_system_rows(flores, "baseline")),
            ("wmt24pp", "smt-9b"): average_directions(_system_rows(wmt, "smt-9b")),
        }
    want = {
        ("flores200", "smt-9b"): (31.1, 87.7),
        ("flores200", "baseline"): (30.3, 86.2),
        ("wmt24pp", "smt-9b"): (33.4, 83.0),
    }
    assert TIMINGS["tables"] < 1.0
    # Known inconsistency in the source table: the flores200 baseline COMET
    # cells average to 86.27, which rounds to 86.3, while the table's own
    # Avg row prints 86.2. The fixture transcribes the cells faithfully and
    # this gate pins the printed row, so that one comparison fails; see the
    # README section on known inconsistencies before touching either side.
    lines = []
    for key, expected in want.items():
        mark = "" if got[key] == expected else "  <- MISMATCH"
        lines.append(f"  {key[0]} {key[1]}: computed {got[key]}, table says {expected}{mark}")
    assert got == want, "summary rows vs per-direction cells:\n" + "\n".join(lines)


def test_corpus_bleu_matches_oracle_and_golden():
    """corpus_bleu equals brute-force n-gram clipping on 200 random corpora
    and reproduces the committed 20-pair golden score."""
    rng = random.Random(118818)
    for _ in range(200):
        hyps, refs = random_corpus(rng)
        want_score, _, want_bp, want_sys, want_ref = oracle_bleu_unsmoothed(hyps, refs)
        got = corpus_bleu(hyps, refs, smoothing="none")
        assert got.score == pytest.approx(want_score, abs=1e-9)
        assert got.brevity_penalty == pytest.approx(want_bp, abs=1e-12)
        assert (got.sys_len, got.ref_len) == (want_sys, want_ref)

    with open(BLEU_FIXTURES / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)["golden20.jsonl"]
    hyps, refs = [], []
    with open(BLEU_FIXTURES / "golden20.jsonl", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            hyps.append(obj["hyp"])
            refs.append(obj["ref"])
    assert len(hyps) == 20
    got = corpus_bleu(hyps, refs)
    assert got.score == pytest.approx(expected["score"], abs=0.01)


def _random_table(rng, max_pieces=30):
    alphabet = "abc" + SPACE_MARKER
    target = rng.randint(2, max_pieces)
    entries = {}
    while len(entries) < target:
        piece = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
        entries[piece] = round(rng.uniform(-6.0, -0.1), 3)
    return PieceTable(entries)


def test_segmentation_is_optimal_and_reconstructs():
    """Viterbi totals equal exhaustive enumeration on short strings, and
    decoded spans always tile and rebuild the normalized input."""
    with timed("segmentation"):
        rng = random.Random(330033)
        for _ in range(50):
            table = _random_table(rng)
            for _ in range(4):
                text = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 11)))
                norm, spans, score = sp_segment_spans(text, table)
                assert len(norm) <= 12
                want = exhaustive_best_score(norm, table.pieces, table.unk_logprob)
                assert score == pytest.approx(want, abs=1e-9), (text, table.pieces)

        fuzz = random.Random(660066)
        tables = [_random_table(fuzz, max_pieces=12) for _ in range(20)]
        alphabet = "abc xyQé€"
        for i in range(10_000):
            table = tables[i % len(tables)]
            text = "".join(fuzz.choice(alphabet) for _ in range(fuzz.randint(0, 14)))
            norm, spans, _ = sp_segment_spans(text, table)
            assert norm == normalize_for_pieces(text)
            pos = 0
            for a, b, is_unk in spans:
                assert a == pos and b > a
                if is_unk:
                    assert b - a == 1
                    assert norm[a] not in table.pieces
                pos = b
            assert pos == len(norm)
            assert "".join(norm[a:b] for a, b, _ in spans) == norm
    assert TIMINGS["segmentation"] < 30.0


def _grid_score(rng):
    # multiples of 1/256: distinct values stay far enough apart that the
    # monotone rescorings below can never collide in float arithmetic
    return rng.randrange(257) / 256


def test_labeling_partition_and_rank_invariance(tmp_path):
    """A sample is Positive exactly when its speech-guided score strictly
    beats the text-only score; the partition is disjoint and exhaustive and
    survives any strictly increasing rescoring unchanged."""
    rng = random.Random(744)
    for i in range(1000):
        s1 = _grid_score(rng)
        s2 = s1 if i % 10 == 0 else _grid_score(rng)
        expected = Label.POSITIVE if s2 > s1 else Label.NEGATIVE
        assert label_for(s1, s2) is expected

    samples = [
        Sample.build("eng", "khm", f"tok{i} mid{i} end{i}", f"tok{i} mid{i} end{i}")
        for i in range(60)
    ]
    scored = []
    for i, sample in enumerate(samples):
        s1, s2 = _grid_score(rng), _grid_score(rng)
        if i % 7 == 0:
            s2 = s1  # force ties into the set; they must land Negative
        scored.append(replace(sample, verdict=Verdict(SpeechUsed.SYNTHETIC, s1, s2)))

    base = partition_and_emit(scored, 1, str(tmp_path / "base"), workspace=str(tmp_path))
    pos_ids = {s.id for s in load_manifest(tmp_path / "base" / "positives.jsonl")}
    neg_ids = {s.id for s in load_manifest(tmp_path / "base" / "negatives.jsonl")}
    assert pos_ids.isdisjoint(neg_ids)
    assert pos_ids | neg_ids == {s.id for s in scored}
    assert (len(pos_ids), len(neg_ids)) == (base.n_positive, base.n_negative)
    assert base.n_negative >= 9  # at least the forced ties

    for t in range(20):
        gamma = 0.25 + 3.75 * rng.random()
        lo = rng.random() * 0.2
        hi = 0.8 + rng.random() * 0.2

        def g(x, gamma=gamma, lo=lo, hi=hi):
            return lo + (hi - lo) * x ** gamma

        relabeled = [
            replace(s, verdict=Verdict(s.verdict.speech_used, g(s.verdict.s1), g(s.verdict.s2)))
            for s in scored
        ]
        assert [r.verdict.label for r in relabeled] == [s.verdict.label for s in scored]
        out = tmp_path / f"rescored{t}"
        partition_and_emit(relabeled, 1, str(out), workspace=str(tmp_path))
        assert {x.id for x in load_manifest(out / "positives.jsonl")} == pos_ids
        assert {x.id for x in load_manifest(out / "negatives.jsonl")} == neg_ids


def _loop_setup(ws, schedule, eval_targets=("lao", "lao", "lao", "lao")):
    train = [
        Sample.build("eng", "khm", f"w{i} x{i} y{i} z{i}", f"w{i} x{i} y{i} z{i}")
        for i in range(6)
    ]
    evals = [
        Sample.build("eng", tgt, f"e{i} f{i} g{i} h{i}", f"e{i} f{i} g{i} h{i}")
        for i, tgt in enumerate(eval_targets)
    ]
    outputs = {}
    for s in train + evals:
        outputs[("smt", s.text)] = s.reference
        outputs[("mt", s.text)] = " ".join(s.reference.split()[:-1])
    stack = build_mock_stack(
        str(ws), translator=LookupTranslator(outputs), eval_schedule=schedule
    )
    config = EvolutionConfig(
        epsilon=0.001, patience=1, max_rounds=5, seed=13, fixed_eval_voice="narrator"
    )
    return train, evals, config, stack


def _journal_tree(ws):
    return {
        str(p.relative_to(ws)): p.read_bytes()
        for p in sorted(Path(ws).rglob("*"))
        if p.is_file() and "cache" not in p.parts and "audio" not in p.parts
    }


def test_loop_determinism_and_crash_resume(tmp_path):
    """Same-seed runs leave byte-identical journals, at the mock stack's
    fan-out width and at 8; a run killed mid-round resumes from its
    journal, re-invokes no backend for work already done, and finishes
    with the identical journal."""
    trees = []
    for name in ("one", "two"):
        ws = tmp_path / name
        train, evals, config, stack = _loop_setup(ws, SCHEDULE_3R)
        width = stack.max_in_flight if name == "one" else 8
        history = run_loop(
            train, evals, POOL, config, stack.backends, str(ws), version=stack.version,
            max_in_flight=width,
        )
        assert len(history) == 3
        assert history[-1].status is RoundStatus.CONVERGED
        trees.append(_journal_tree(ws))
        WORKSPACES.append(ws)
    assert trees[0] == trees[1]

    ws = tmp_path / "crash"
    train, evals, config, stack = _loop_setup(ws, SCHEDULE_3R)

    class Killed(Exception):
        pass

    def kill(round_index, phase, source):
        if (round_index, phase, source) == (2, "refinement", "fresh"):
            raise Killed()

    with pytest.raises(Killed):
        run_loop(
            train, evals, POOL, config, stack.backends, str(ws),
            version=stack.version, max_in_flight=stack.max_in_flight, on_phase=kill,
        )

    train, evals, config, stack = _loop_setup(ws, SCHEDULE_3R)
    sources = {}
    history = run_loop(
        train, evals, POOL, config, stack.backends, str(ws),
        version=stack.version, max_in_flight=stack.max_in_flight,
        on_phase=lambda k, phase, source: sources.setdefault((k, phase), source),
    )
    assert history[-1].status is RoundStatus.CONVERGED
    for key in (
        (0, "baseline"),
        (1, "acquisition"), (1, "refinement"), (1, "update"), (1, "evaluation"),
        (2, "refinement"),
    ):
        assert sources[key] == "journal", key
    assert sources[(2, "update")] == "fresh"
    assert sources[(2, "evaluation")] == "fresh"
    # every request the resumed run repeats is served by the journal or the
    # response cache: the synthesis backend is never invoked again
    assert stack.tts_backend.calls.count == 0
    assert _journal_tree(ws) == trees[0]
    WORKSPACES.append(ws)


def _write_jsonl(path, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


def test_scheduled_gains_drive_convergence_at_round_four(tmp_path, capsys):
    """Eval gains of +1.9, +2.0, +1.7 points then +0.05 over a khm/lao/mya
    split report Improved three times, converge on round four, and the
    rounds report carries exactly the scheduled deltas."""
    train = [
        {
            "src_lang": "eng", "tgt_lang": "khm",
            "text": f"alpha{i} beta{i} gamma{i} delta{i}",
            "reference": f"alpha{i} beta{i} gamma{i} delta{i}",
        }
        for i in range(6)
    ]
    evals = []
    for i, tgt in enumerate(["khm", "khm", "lao", "lao", "mya", "mya"]):
        text = f"omega{i} psi{i} chi{i} phi{i}"
        evals.append(
            {"src_lang": "eng", "tgt_lang": tgt, "text": text, "reference": text}
        )
    _write_jsonl(tmp_path / "train.jsonl", train)
    _write_jsonl(tmp_path / "eval.jsonl", evals)
    ws = tmp_path / "ws"

    code = cli_main([
        "loop",
        "--train", str(tmp_path / "train.jsonl"),
        "--eval", str(tmp_path / "eval.jsonl"),
        "--workspace", str(ws),
        "--mock", "--mock-schedule", SCHEDULE_4R, "--seed", "13",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert [l.split()[-1] for l in lines] == [
        "Improved", "Improved", "Improved", "Converged"
    ]
    assert [l.split("delta=")[1].split()[0] for l in lines[:3]] == [
        "+1.9", "+2.0", "+1.7"
    ]

    report_path = tmp_path / "rounds.json"
    code = cli_main([
        "report", "rounds", "--workspace", str(ws), "--report", str(report_path),
    ])
    capsys.readouterr()
    assert code == 0
    report = json.loads(report_path.read_text())
    sched = [float(x) for x in SCHEDULE_4R.split(",")]
    assert report["baseline"] == pytest.approx(sched[0], abs=1e-9)
    states = report["rounds"]
    assert [s["eval_score"] for s in states] == pytest.approx(sched[1:], abs=1e-9)
    want_deltas = [sched[i + 1] - sched[i] for i in range(4)]
    assert [s["delta_vs_best"] for s in states] == pytest.approx(want_deltas, abs=1e-9)
    for state in states:
        assert set(state["eval_by_direction"]) == {"eng-khm", "eng-lao", "eng-mya"}
    WORKSPACES.append(ws)


def test_no_negative_sample_reaches_training_data(tmp_path):
    """Scan every journal the gate produced: no Negative-labeled id appears
    in any dataset referenced by any emitted training spec."""
    # one more run whose refinement genuinely rejects half the samples, so
    # the scan is exercised against non-empty negative sets
    ws = tmp_path / "mixed"
    train = [
        Sample.build("eng", "khm", f"p{i} q{i} r{i} s{i}", f"p{i} q{i} r{i} s{i}")
        for i in range(8)
    ]
    evals = [
        Sample.build("eng", "lao", f"m{i} n{i} o{i} u{i}", f"m{i} n{i} o{i} u{i}")
        for i in range(4)
    ]
    outputs = {}
    for i, s in enumerate(train):
        degraded = " ".join(s.reference.split()[:-1])
        outputs[("mt", s.text)] = degraded
        # odd samples gain nothing from speech: tie scores, Negative label
        outputs[("smt", s.text)] = s.reference if i % 2 == 0 else degraded
    for s in evals:
        outputs[("smt", s.text)] = s.reference
        outputs[("mt", s.text)] = " ".join(s.reference.split()[:-1])
    stack = build_mock_stack(
        str(ws), translator=LookupTranslator(outputs),
        eval_schedule=[0.800, 0.819, 0.8195],
    )
    config = EvolutionConfig(
        epsilon=0.001, patience=1, max_rounds=2, seed=21, fixed_eval_voice="narrator"
    )
    history = run_loop(
        train, evals, POOL, config, stack.backends, str(ws), version=stack.version,
        max_in_flight=stack.max_in_flight,
    )
    assert any(state.n_negative > 0 for state in history)
    WORKSPACES.append(ws)

    datasets_checked = 0
    negatives_seen = 0
    for root in WORKSPACES:
        for spec_path in sorted(Path(root).glob("rounds/*/jobspec.json")):
            round_dir = spec_path.parent
            neg_ids = {s.id for s in load_manifest(round_dir / "negatives.jsonl")}
            scored_negs = {
                s.id
                for s in load_manifest(round_dir / "scored.jsonl")
                if s.verdict.label is Label.NEGATIVE
            }
            assert neg_ids == scored_negs
            negatives_seen += len(neg_ids)
            spec = json.loads(spec_path.read_text())
            if spec is None:
                continue
            for dataset in spec["datasets"]:
                ids = {s.id for s in load_manifest(Path(root) / dataset)}
                assert not ids & neg_ids, (str(root), dataset)
                datasets_checked += 1
    assert datasets_checked >= 2
    assert negatives_seen > 0


def test_pretraining_plan_trainables_and_adapter_meta():
    """ASR and S2TT tune only the speech adapter, SMT adds the LLM adapter,
    and every stage carries the fixed projector and LoRA constants."""
    plan = plan_stages({
        Stage.ASR: "corpora/asr.jsonl",
        Stage.S2TT: "corpora/s2tt.jsonl",
        Stage.SMT: ["corpora/parallel.jsonl", "corpora/triplets.jsonl"],
    })
    assert [spec.stage for spec in plan] == [Stage.ASR, Stage.S2TT, Stage.SMT]
    assert plan[0].trainable == {Trainable.SPEECH_ADAPTER}
    assert plan[1].trainable == {Trainable.SPEECH_ADAPTER}
    assert plan[2].trainable == {Trainable.SPEECH_ADAPTER, Trainable.LLM_ADAPTER}
    want_meta = {"queries": 80, "query_dim": 768, "lora_rank": 16, "lora_alpha": 32}
    assert dict(ADAPTER_META) == want_meta
    for spec in plan:
        assert dict(spec.adapter_meta) == want_meta
        assert spec.to_json()["adapter_meta"] == want_meta


def test_suite_is_offline_and_within_budget():
    """The network guard was live for the whole gate, the per-check budgets
    held, and the gate leaves ample headroom in the overall suite budget."""
    with socket.socket() as probe, pytest.raises(AssertionError, match="socket connect"):
        probe.connect(("127.0.0.1", 9))
    assert TIMINGS.get("tables", 0.0) < 1.0
    assert TIMINGS.get("segmentation", 0.0) < 30.0
    # the unit files alongside this gate run in a few seconds; the full
    # tier-1 run takes well under this budget
    assert time.monotonic() - _T0 < 90.0
