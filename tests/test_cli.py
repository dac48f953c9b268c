"""Command-line surface: formats, exit codes, config precedence, reports."""

import argparse
import csv
import hashlib
import inspect
import json
import logging
import re
import shutil
import string
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evoloop.backends.batch import run_batch
from evoloop.backends.clients import EndpointConfig
from evoloop.cli import (
    RunConfig,
    UsageError,
    build_parser,
    build_stack,
    fmt1,
    load_run_config,
    main,
)
from evoloop.corpus import hash_sample, load_manifest
from evoloop.errors import EvoloopError, PermanentBackendError
from evoloop.evolution import (
    EvolutionConfig,
    run_acquisition,
    run_evaluation,
    run_loop,
    run_refinement,
)
from evoloop.evolution import journal, phases
from evoloop.evolution.journal import Journal, fingerprint_inputs
from evoloop.mockstack import wire_stack

SCHEDULE = "0.800,0.819,0.839,0.856,0.8565"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("EVOLOOP_WORKSPACE", raising=False)


def write_manifest(path, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


def make_rows(n, src="eng", tgt="khm", stem="alpha"):
    rows = []
    for i in range(n):
        text = f"{stem}{i} shared{i} middle{i} tail{i}"
        rows.append({"src_lang": src, "tgt_lang": tgt, "text": text, "reference": text})
    return rows


def write_piece_table(path):
    meta = "▁"
    lines = ["<unk>\t0.0", "<s>\t0.0", "</s>\t0.0", f"{meta}\t-5.0"]
    for ch in string.ascii_lowercase + string.digits:
        lines.append(f"{ch}\t-4.0")
        lines.append(f"{meta}{ch}\t-3.5")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_err(argv, capsys):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().err


@pytest.fixture
def corpus_dir(tmp_path):
    write_manifest(tmp_path / "train.jsonl", make_rows(6))
    write_manifest(tmp_path / "eval.jsonl", make_rows(4, tgt="lao", stem="omega"))
    return tmp_path


def loop_argv(corpus_dir, ws="ws", extra=()):
    return [
        "loop",
        "--train", corpus_dir / "train.jsonl",
        "--eval", corpus_dir / "eval.jsonl",
        "--workspace", corpus_dir / ws,
        "--mock",
        "--mock-schedule", SCHEDULE,
        "--seed", "13",
        *extra,
    ]


# --- validate -------------------------------------------------------------

def test_validate_ok(corpus_dir, capsys):
    code, out = run_cli(["validate", corpus_dir / "train.jsonl"], capsys)
    assert code == 0
    assert out == "6 samples OK\n"


def test_validate_empty_manifest(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, out = run_cli(["validate", path], capsys)
    assert code == 0
    assert out == "0 samples OK\n"


def test_validate_reports_each_bad_line(tmp_path, capsys):
    good = make_rows(1)[0]
    bad_lang = dict(good, src_lang="xx")
    bad_id = dict(good, id="deadbeef")
    path = write_manifest(tmp_path / "mixed.jsonl", [good, bad_lang, bad_id])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    report = tmp_path / "report.json"
    code, out = run_cli(["validate", path, "--report", report], capsys)
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "line 2: unknown language code 'xx'"
    errors = json.loads(report.read_text(encoding="utf-8"))["errors"]
    assert errors[0] == {"line": 2, "error": "unknown language code 'xx'"}
    assert [e["line"] for e in errors] == [2, 3, 4]
    assert lines[1].startswith("line 3:")
    assert "stored id" in lines[1]
    assert lines[2].startswith("line 4:")
    assert "invalid JSON" in lines[2]
    assert lines[3] == "1 valid, 3 invalid"


def test_validate_reports_a_line_that_is_not_utf8_and_goes_on(tmp_path, capsys):
    path = write_manifest(tmp_path / "m.jsonl", make_rows(3))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b"alpha1", b"alpha1\xff")
    path.write_bytes(b"".join(lines))
    code, out = run_cli(["validate", path], capsys)
    assert code == 1
    assert out == "line 2: invalid JSON: not UTF-8\n2 valid, 1 invalid\n"


def _row_line(**overrides) -> bytes:
    return json.dumps(dict(make_rows(1)[0], **overrides), ensure_ascii=False).encode("utf-8")


# one manifest line each: good rows, blank lines, bad JSON, non-objects,
# unknown languages, wrong stored ids and lines that are not UTF-8
MANIFEST_LINES = st.one_of(
    st.sampled_from(["alpha", "ជំរាប", "Größe"]).map(lambda text: _row_line(text=text)),
    st.just(_row_line(id=hash_sample("alpha0 shared0 middle0 tail0",
                                     "alpha0 shared0 middle0 tail0", "eng", "khm"))),
    st.sampled_from([b"", b"   ", b"\t"]),
    st.sampled_from([b"{not json", b'{"text": }', b"[1, 2]", b"5", b'"row"', b"null"]),
    st.sampled_from(["xx", "elv"]).map(lambda code: _row_line(src_lang=code)),
    st.just(_row_line(id="deadbeef")),
    st.just(_row_line().replace(b"alpha", b"alpha\xff")),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.tuples(MANIFEST_LINES, st.sampled_from([b"\n", b"\r\n"])),
                      max_size=6))
def test_validate_and_load_manifest_agree(tmp_path, capsys, lines):
    data = b"".join(line + end for line, end in lines)
    path = tmp_path / "m.jsonl"
    path.write_bytes(data)
    code, out = run_cli(["validate", path], capsys)
    *errors, summary = out.splitlines()
    try:
        samples = load_manifest(path)
    except EvoloopError as exc:
        assert code == 1 and errors
        first = int(re.match(r"line (\d+): ", errors[0]).group(1))
        assert exc.line_no == first
        assert re.search(rf"\bline {first}\b", str(exc))
    else:
        assert code == 0 and not errors
        assert summary == f"{len(samples)} samples OK"
        assert samples == load_manifest(tmp_path / "never-opened.jsonl", data=data)


def test_validate_missing_file_is_config_error(tmp_path, capsys):
    code, _ = run_cli(["validate", tmp_path / "nope.jsonl"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, want", [
    pytest.param(["validate", "{train}", "--report", "{out}"], 0, id="validate"),
    pytest.param(["report", "rounds"], 1, id="report-rounds"),
    pytest.param(["report", "resource", "--direction-scores", "{scores}"], 0,
                 id="report-resource"),
    pytest.param(["report", "directions", "--direction-scores", "{missing}"], 2,
                 id="report-directions"),
])
def test_read_only_command_makes_no_workspace(corpus_dir, dirscores, argv, want):
    blocked = corpus_dir / "blocker"
    blocked.write_text("")
    paths = {"train": corpus_dir / "train.jsonl", "out": corpus_dir / "out" / "r.json",
             "scores": dirscores, "missing": corpus_dir / "nope.json"}
    argv = [str(a).format(**paths) for a in argv]
    for ws in (corpus_dir / "absent", blocked / "ws"):
        assert main(argv + ["--workspace", str(ws)]) == want
        assert not ws.exists()
    if argv[0] == "validate":
        assert json.loads(paths["out"].read_text())["n_samples"] == 6


def test_validate_strict_rejects_unknown_fields(tmp_path, capsys):
    row = dict(make_rows(1)[0], extra_field="x")
    path = write_manifest(tmp_path / "m.jsonl", [row])
    code, _ = run_cli(["validate", path], capsys)
    assert code == 0
    code, out = run_cli(["validate", path, "--strict"], capsys)
    assert code == 1
    assert "unknown manifest field" in out


VERDICT = {"s1": 0.4, "s2": 0.6, "label": "Positive", "speech_used": "Synthetic"}


def test_validate_refuses_each_bad_verdict_by_key(tmp_path, capsys):
    rows = make_rows(7)
    bad = [{**VERDICT, "s1": "high"}, {**VERDICT, "s2": float("nan")}, {**VERDICT, "label": 5},
           {**VERDICT, "speech_used": True}, {**VERDICT, "label": "Negative"},
           {"s1": 0.4, "s2": 0.6}]
    path = write_manifest(tmp_path / "m.jsonl",
                          [{**rows[0], **VERDICT}] + [{**r, **v} for r, v in zip(rows[1:], bad)])
    for strict in ([], ["--strict"]):
        code, out = run_cli(["validate", path, *strict], capsys)
        assert code == 1
        assert out.splitlines() == [
            "line 2: malformed JSON: bad verdict: s1: expected a number, got 'high'",
            "line 3: malformed JSON: bad verdict: s2: expected a finite number, got nan",
            "line 4: malformed JSON: bad verdict: label: expected a string, got 5",
            "line 5: malformed JSON: bad verdict: speech_used: expected a string, got True",
            "line 6: malformed JSON: bad verdict: label: Negative contradicts s1=0.4, s2=0.6",
            "line 7: malformed JSON: bad verdict: lacks 'speech_used'",
            "1 valid, 6 invalid",
        ]


# --- config precedence ------------------------------------------------------

def parse(argv):
    return build_parser().parse_args([str(a) for a in argv])


def test_config_defaults():
    cfg = load_run_config(parse(["validate", "m.jsonl"]))
    assert cfg.workspace == "."
    assert cfg.evolution.epsilon == 0.001
    assert cfg.evolution.patience == 1
    assert cfg.evolution.max_rounds == 5
    assert not cfg.mock


def test_config_file_values(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "workspace": "wsdir",
        "voices": ["narrator", "reader"],
        "evolution": {"epsilon": 0.01, "max_rounds": 2, "seed": 7},
        "metrics": {"smoothing": "none", "piece_table_path": "p.tsv"},
        "endpoints": {"tts": {"base_url": "http://tts.local"}},
        "strict_manifests": True,
    }))
    cfg = load_run_config(parse(["validate", "m.jsonl", "--config", conf]))
    assert cfg.workspace == "wsdir"
    assert cfg.voices == ("narrator", "reader")
    assert cfg.evolution.epsilon == 0.01
    assert cfg.evolution.max_rounds == 2
    assert cfg.evolution.seed == 7
    assert cfg.smoothing == "none"
    assert cfg.piece_table_path == "p.tsv"
    assert cfg.endpoints["tts"].base_url == "http://tts.local"
    assert cfg.strict_manifests


def test_env_overrides_config_flags_override_env(tmp_path, monkeypatch):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"workspace": "from_config"}))
    cfg = load_run_config(parse(["validate", "m.jsonl", "--config", conf]))
    assert cfg.workspace == "from_config"
    monkeypatch.setenv("EVOLOOP_WORKSPACE", "from_env")
    cfg = load_run_config(parse(["validate", "m.jsonl", "--config", conf]))
    assert cfg.workspace == "from_env"
    cfg = load_run_config(
        parse(["validate", "m.jsonl", "--config", conf, "--workspace", "from_flag"])
    )
    assert cfg.workspace == "from_flag"


def test_flag_overrides_reach_evolution_config(corpus_dir):
    argv = loop_argv(corpus_dir, extra=["--epsilon", "0.05", "--max-rounds", "2",
                                        "--eval-voice", "narrator"])
    cfg = load_run_config(parse(argv))
    assert cfg.evolution.epsilon == 0.05
    assert cfg.evolution.max_rounds == 2
    assert cfg.evolution.seed == 13
    assert cfg.evolution.fixed_eval_voice == "narrator"
    assert cfg.mock
    assert cfg.mock_schedule == (0.800, 0.819, 0.839, 0.856, 0.8565)
    conf = corpus_dir / "conf.json"
    conf.write_text(json.dumps({"evolution": {"seed": 7}}))
    cfg = load_run_config(parse(argv + ["--config", conf, "--seed", "0"]))
    assert cfg.evolution.seed == 0


def test_bad_config_json_is_usage_error(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text("{broken")
    with pytest.raises(UsageError):
        load_run_config(parse(["validate", "m.jsonl", "--config", conf]))


def test_unknown_endpoint_key_is_usage_error(tmp_path):
    conf = tmp_path / "conf.json"
    for spec, key in (({"url": "http://x"}, "url"), ({"max_in_flight": 2}, "max_in_flight")):
        conf.write_text(json.dumps({"endpoints": {"tts": spec}}))
        with pytest.raises(UsageError, match=key):
            load_run_config(parse(["validate", "m.jsonl", "--config", conf]))


@pytest.mark.parametrize("config, key", [
    ({"wokspace": "x"}, "wokspace"),
    ({"evolution": {"max_round": 1}}, "max_round"),
    ({"metrics": {"smoothng": "none"}}, "smoothng"),
    ({"metrics": {"ratio_threshold": 0.5}}, "ratio_threshold"),
])
def test_unknown_config_key_is_usage_error(tmp_path, capsys, config, key):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(config))
    code, err = run_cli_err(["validate", "m.jsonl", "--config", conf], capsys)
    assert code == 2
    assert key in err


@pytest.mark.parametrize("config, message", [
    ({"endpoints": ["tts"]}, "endpoints config must be a JSON object"),
    ({"endpoints": {"tss": {"base_url": "http://x"}}}, "tss"),
    ({"voices": []}, "voice pool is empty"),
    ({"voices": "abc"}, "voices config must be a JSON list of strings"),
    ({"voices": ["a", 1]}, "voices config must be a JSON list of strings"),
    ({"strict_manifests": "no"}, "strict_manifests config must be a JSON boolean"),
    ({"workspace": 5}, "workspace config must be a JSON string"),
    ({"update_hook": ["true"]}, "update_hook config must be a JSON string"),
    ({"token": 1}, "token config must be a JSON string"),
    # a value keeps its JSON type, and the error names its key
    ({"evolution": {"patience": 1.9}}, "evolution.patience: expected an integer, got 1.9"),
    ({"evolution": {"max_rounds": "2"}}, "evolution.max_rounds: expected an integer, got '2'"),
    ({"evolution": {"seed": True}}, "evolution.seed: expected an integer, got True"),
    ({"evolution": {"epsilon": "0.1"}}, "evolution.epsilon: expected a number, got '0.1'"),
    ({"evolution": {"speech_source": 1}}, "evolution.speech_source: expected a string, got 1"),
    ({"evolution": {"fixed_eval_voice": None}},
     "evolution.fixed_eval_voice: expected a string, got None"),
    ({"endpoints": {"tts": {"timeout_s": True}}},
     "endpoints.tts.timeout_s: expected a number, got True"),
    ({"endpoints": {"score": {"max_attempts": 2.5}}},
     "endpoints.score.max_attempts: expected an integer, got 2.5"),
    ({"endpoints": {"translate": {"backoff_base_ms": "100"}}},
     "endpoints.translate.backoff_base_ms: expected an integer, got '100'"),
    ({"endpoints": {"tts": {"base_url": 5}}}, "endpoints.tts.base_url: expected a string, got 5"),
    # json.dumps writes these as the tokens NaN and Infinity, which JSON lacks
    ({"evolution": {"epsilon": float("nan")}},
     "evolution.epsilon: expected a finite number, got nan"),
    ({"endpoints": {"tts": {"timeout_s": float("inf")}}},
     "endpoints.tts.timeout_s: expected a finite number, got inf"),
    ({"voices": ["", "v1"]}, "voices config must not hold an empty voice id"),
    ({"voices": ["v1", ""]}, "voices config must not hold an empty voice id"),
])
def test_bad_endpoints_or_voices_config_is_usage_error(corpus_dir, capsys, config, message):
    conf = corpus_dir / "conf.json"
    conf.write_text(json.dumps(config))
    code, err = run_cli_err(loop_argv(corpus_dir, extra=["--config", conf]), capsys)
    assert code == 2
    assert message in err


def test_empty_voices_flag_is_usage_error(corpus_dir, capsys):
    code, err = run_cli_err(loop_argv(corpus_dir, extra=["--voices", ","]), capsys)
    assert code == 2
    assert "voice pool is empty" in err


def test_accepted_config_keys_take_effect(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "workspace": "ws", "strict_manifests": True, "update_hook": "true {jobspec}",
        "voices": ["v1"], "token": "t", "endpoints": {"tts": {"base_url": "http://x"}},
        "metrics": {"smoothing": "none", "piece_table_path": "p.tsv"},
        "evolution": {"epsilon": 0.01, "patience": 2, "max_rounds": 3, "seed": 7,
                      "speech_source": "PreferAuthentic", "fixed_eval_voice": "v1"},
    }))
    cfg = load_run_config(parse(["validate", "m.jsonl", "--config", conf]))
    assert (cfg.workspace, cfg.strict_manifests, cfg.voices, cfg.token) == (
        "ws", True, ("v1",), "t")
    assert cfg.update_hook == "true {jobspec}"
    assert cfg.endpoints["tts"].base_url == "http://x"
    assert (cfg.smoothing, cfg.piece_table_path) == ("none", "p.tsv")
    assert cfg.evolution.to_json() == {
        "epsilon": 0.01, "patience": 2, "max_rounds": 3, "seed": 7,
        "speech_source": "PreferAuthentic", "fixed_eval_voice": "v1"}


def test_evolution_config_defaults_come_from_the_dataclass():
    assert EvolutionConfig.from_json({}) == EvolutionConfig()
    # the golden loop's config, as its journal fingerprints it
    config = EvolutionConfig.from_json({"seed": 13, "fixed_eval_voice": "voice-a"})
    assert json.dumps(config.to_json()) == (
        '{"epsilon": 0.001, "patience": 1, "max_rounds": 5, "seed": 13, '
        '"speech_source": "PreferSynthetic", "fixed_eval_voice": "voice-a"}')
    assert fingerprint_inputs(config.to_json(), [], [], [])["config"] == (
        "2f8d35e6c1f2db87b1dd1bbc7d6509284521ab4ef85a45381e5c7544748e919c")
    # an integer is taken for a float field and kept as a float; a string
    # is not taken for an integer
    coerced = EvolutionConfig.from_json({"epsilon": 1}).to_json()
    assert coerced["epsilon"] == 1.0
    assert isinstance(coerced["epsilon"], float)
    with pytest.raises(ValueError, match="seed: expected an integer, got '13'"):
        EvolutionConfig.from_json({"seed": "13"})


def test_config_integer_is_taken_for_a_float_field(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"evolution": {"epsilon": 1},
                                "endpoints": {"tts": {"timeout_s": 5}}}))
    cfg = load_run_config(parse(["validate", "m.jsonl", "--config", conf]))
    assert (cfg.evolution.epsilon, cfg.endpoints["tts"].timeout_s) == (1.0, 5.0)
    assert isinstance(cfg.evolution.epsilon, float)
    assert isinstance(cfg.endpoints["tts"].timeout_s, float)


def test_invalid_epsilon_flag_is_usage_error(corpus_dir, capsys):
    for value in ("-1", "0", "nan", "inf", "1e400"):
        with pytest.raises(UsageError):
            load_run_config(parse(loop_argv(corpus_dir, extra=["--epsilon", value])))
        code, err = run_cli_err(loop_argv(corpus_dir, extra=["--epsilon", value]), capsys)
        assert code == 2
        assert "invalid --epsilon: epsilon must be a finite number > 0" in err


def test_endpoints_required_without_mock(corpus_dir, capsys):
    # --mock-schedule goes too: without --mock it is refused on its own
    argv = [a for a in loop_argv(corpus_dir) if a not in ("--mock", "--mock-schedule", SCHEDULE)]
    code, err = run_cli_err(argv, capsys)
    assert code == 2
    assert "endpoints not configured" in err


@pytest.mark.parametrize("schedule", ["0.5,1.7", "0.5,nan", "-0.1", "inf", "0.5,x", "0.5,,0.6"])
def test_mock_schedule_outside_unit_interval_is_usage_error(corpus_dir, capsys, schedule):
    argv = [schedule if a == SCHEDULE else a for a in loop_argv(corpus_dir)]
    code, err = run_cli_err(argv, capsys)
    assert code == 2
    assert err.startswith("error: bad --mock-schedule: ")
    assert not (corpus_dir / "ws" / "journal.json").exists()


def test_mock_schedule_without_mock_is_usage_error(corpus_dir, capsys):
    argv = [a for a in loop_argv(corpus_dir) if a != "--mock"]
    code, err = run_cli_err(argv, capsys)
    assert code == 2
    assert err == "error: --mock-schedule takes effect only with --mock\n"


def hyp_rows(rows, src="eng", tgt="khm"):
    return [{"id": hash_sample(r["text"], r["reference"], src, tgt), "text": r["reference"]}
            for r in rows]


@pytest.mark.parametrize("argv", [
    pytest.param(["synth", "{train}"], id="synth"),
    pytest.param(["translate", "{train}"], id="translate"),
    pytest.param(["score", "{train}", "--hyp", "{hyp}"], id="score"),
    pytest.param(["classify", "{train}"], id="classify"),
    pytest.param(["evaluate", "--direction-scores", "{scores}"], id="evaluate"),
    pytest.param(["loop", "--train", "{train}", "--eval", "{eval}"], id="loop"),
])
def test_workspace_that_cannot_be_made_is_usage_error(corpus_dir, dirscores, capsys, argv):
    """Checked before any work: a command must not fail later, inside its
    backends or the loop, with a different exit code."""
    blocked = corpus_dir / "blocker"
    blocked.write_text("")
    paths = {"train": corpus_dir / "train.jsonl", "eval": corpus_dir / "eval.jsonl",
             "scores": dirscores,
             "hyp": write_manifest(corpus_dir / "hyp.jsonl", hyp_rows(make_rows(6)))}
    argv = [str(a).format(**paths) for a in argv]
    code, err = run_cli_err(argv + ["--workspace", blocked / "ws", "--mock"], capsys)
    assert code == 2
    assert "workspace not writable" in err


# --- pipeline subcommands -----------------------------------------------------

def test_synth_translate_score_classify(corpus_dir, capsys):
    ws = corpus_dir / "ws"
    code, out = run_cli(
        ["synth", corpus_dir / "train.jsonl", "--workspace", ws, "--mock",
         "--out", ws / "synth.jsonl"], capsys)
    assert code == 0
    assert "synthesized 6 clips (0 degraded)" in out
    synth_rows = [json.loads(l) for l in (ws / "synth.jsonl").read_text().splitlines()]
    assert all(r.get("synthetic_audio") for r in synth_rows)

    code, out = run_cli(
        ["translate", ws / "synth.jsonl", "--workspace", ws, "--mock",
         "--mode", "smt", "--out", ws / "hyp.smt.jsonl"], capsys)
    assert code == 0
    hyp_rows = [json.loads(l) for l in (ws / "hyp.smt.jsonl").read_text().splitlines()]
    assert len(hyp_rows) == 6
    assert all(set(r) == {"id", "text"} for r in hyp_rows)
    # speech-guided mock echoes the reference
    assert hyp_rows[0]["text"] == synth_rows[0]["reference"]

    code, out = run_cli(
        ["score", ws / "synth.jsonl", "--hyp", ws / "hyp.smt.jsonl",
         "--workspace", ws, "--mock", "--out", ws / "scores.jsonl"], capsys)
    assert code == 0
    scores = [json.loads(l)["score"] for l in (ws / "scores.jsonl").read_text().splitlines()]
    assert scores == [1.0] * 6

    code, out = run_cli(
        ["classify", ws / "synth.jsonl", "--workspace", ws, "--mock",
         "--out", ws / "classify"], capsys)
    assert code == 0
    assert "positives=6 negatives=0" in out
    jobspec = json.loads((ws / "classify" / "jobspec.json").read_text())
    assert jobspec["stage"] == "ContinualSMT"
    assert jobspec["datasets"] == ["classify/positives.jsonl"]


def test_synth_keeps_a_valid_verdict_and_never_writes_nan(corpus_dir, capsys):
    ws = corpus_dir / "ws"
    rows = make_rows(2)
    path = write_manifest(corpus_dir / "m.jsonl", [{**rows[0], **VERDICT}, rows[1]])
    code, _ = run_cli(["synth", path, "--workspace", ws, "--mock",
                       "--out", ws / "synth.jsonl"], capsys)
    assert code == 0
    first, second = (json.loads(l) for l in (ws / "synth.jsonl").read_text().splitlines())
    assert {key: first[key] for key in VERDICT} == VERDICT
    assert not set(VERDICT) & set(second)

    write_manifest(path, [{**rows[0], **VERDICT, "s2": float("nan")}])
    assert b"NaN" in path.read_bytes()
    code, err = run_cli_err(["synth", path, "--workspace", ws, "--mock",
                             "--out", ws / "nan.jsonl"], capsys)
    assert code == 1
    assert "line 1: malformed JSON: bad verdict: s2: expected a finite number, got nan" in err
    assert not (ws / "nan.jsonl").exists()


def test_translate_text_mode_drops_final_token(corpus_dir, capsys):
    ws = corpus_dir / "ws"
    run_cli(["synth", corpus_dir / "train.jsonl", "--workspace", ws, "--mock",
             "--out", ws / "synth.jsonl"], capsys)
    code, _ = run_cli(
        ["translate", ws / "synth.jsonl", "--workspace", ws, "--mock",
         "--mode", "mt", "--out", ws / "hyp.mt.jsonl"], capsys)
    assert code == 0
    rows = [json.loads(l) for l in (ws / "hyp.mt.jsonl").read_text().splitlines()]
    refs = {json.loads(l)["id"]: json.loads(l)["reference"]
            for l in (ws / "synth.jsonl").read_text().splitlines()}
    for row in rows:
        assert row["text"] == " ".join(refs[row["id"]].split()[:-1])


def test_score_missing_hypotheses(corpus_dir, capsys):
    ws = corpus_dir / "ws"
    hyp = write_manifest(ws / "partial.jsonl", [])
    code, err = run_cli_err(
        ["score", corpus_dir / "train.jsonl", "--hyp", hyp,
         "--workspace", ws, "--mock"], capsys)
    assert code == 1
    assert "lack hypotheses" in err


@pytest.mark.parametrize("bad, message", [
    ({"text": 5}, "rows need string 'id' and 'text'"),
    ({"id": [1]}, "rows need string 'id' and 'text'"),
    (b'{"id": "x", "text": }', "invalid JSON: Expecting value"),
    (b'{"id": "x", "text": "caf\xe9"}', "invalid JSON: not UTF-8"),
], ids=["int-text", "list-id", "invalid-json", "not-utf8"])
def test_score_non_string_hypothesis_row(corpus_dir, capsys, bad, message):
    ws = corpus_dir / "ws"
    rows = hyp_rows(make_rows(6))
    if isinstance(bad, dict):
        rows[1] = dict(rows[1], **bad)
    hyp = write_manifest(ws / "hyp.jsonl", rows)
    if isinstance(bad, bytes):
        lines = hyp.read_bytes().splitlines(keepends=True)
        hyp.write_bytes(b"".join([lines[0], bad + b"\n", *lines[2:]]))
    code, err = run_cli_err(
        ["score", corpus_dir / "train.jsonl", "--hyp", hyp,
         "--workspace", ws, "--mock"], capsys)
    assert code == 1
    assert f"{hyp}:2: {message}" in err


# --- evaluate -----------------------------------------------------------------

DIR_ROWS = [
    {"direction": ["eng", "khm"], "spbleu": 25.04, "comet": 86.23, "n_samples": 1},
    {"direction": ["eng", "deu"], "spbleu": 37.16, "comet": 89.11, "n_samples": 1},
    {"direction": ["eng", "tha"], "spbleu": 31.02, "comet": 84.95, "n_samples": 1},
]


@pytest.fixture
def dirscores(tmp_path):
    path = tmp_path / "dirscores.json"
    path.write_text(json.dumps({"rows": DIR_ROWS}))
    return path


def test_evaluate_direction_scores_table(dirscores, tmp_path, capsys):
    code, out = run_cli(
        ["evaluate", "--direction-scores", dirscores, "--workspace", tmp_path / "ws"],
        capsys)
    assert code == 0
    assert out.splitlines() == [
        "direction    spBLEU / COMET",
        "eng-khm      25.0 / 86.2",
        "eng-deu      37.2 / 89.1",
        "eng-tha      31.0 / 85.0",
        "Avg          31.1 / 86.8",
    ]
    report = json.loads((tmp_path / "ws" / "reports" / "evaluate.json").read_text())
    assert report["avg"] == {"spbleu": 31.1, "comet": 86.8}
    # JSON keeps full precision, the table rounds
    assert report["rows"][0]["spbleu"] == 25.04


def test_evaluate_direction_filter(dirscores, tmp_path, capsys):
    code, out = run_cli(
        ["evaluate", "--direction-scores", dirscores, "--direction", "eng-khm",
         "--workspace", tmp_path / "ws"], capsys)
    assert code == 0
    assert "eng-deu" not in out
    assert "eng-khm      25.0 / 86.2" in out
    code, _ = run_cli(
        ["evaluate", "--direction-scores", dirscores, "--direction", "eng-fra",
         "--workspace", tmp_path / "ws"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", [["evaluate"], ["report", "resource"],
                                     ["report", "directions"]], ids=" ".join)
@pytest.mark.parametrize("content", [
    {"direction_rows": DIR_ROWS},
    [{"direction": ["eng", "khm"], "comet": 86.23}],
    [1],
    [{"direction": ["eng"], "spbleu": 25.04, "comet": 86.23}],
    [{"direction": "eng-khm", "spbleu": 25.04, "comet": 86.23}],
    [{"direction": ["eng", "khm"], "spbleu": "abc", "comet": 86.23}],
    [{"direction": ["eng", "khm"], "spbleu": 25.04, "comet": 86.23, "n_samples": "x"}],
    [{"direction": ["eng", "khm"], "spbleu": 125.04, "comet": 86.23}],
    [{"direction": ["eng", "khm"], "spbleu": True, "comet": 86.23}],
    [{"direction": ["eng", "khm"], "spbleu": 25.04, "comet": 86.23, "n_samples": 2.9}],
    [{"direction": ["eng", "khm"], "spbleu": 25.04, "comet": "86.2"}],
    [{"direction": ["eng", "khm"], "spbleu": 10**400, "comet": 86.23}],
], ids=["object-without-rows", "row-without-spbleu", "row-not-an-object",
        "direction-not-a-pair", "direction-a-string", "spbleu-not-a-number",
        "n-samples-not-a-number", "spbleu-out-of-range", "spbleu-a-boolean",
        "n-samples-not-an-integer", "comet-a-string", "spbleu-too-large-for-a-float"])
def test_malformed_direction_scores_is_usage_error(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    code, err = run_cli_err(
        command + ["--direction-scores", path, "--workspace", tmp_path / "ws"], capsys)
    assert code == 2
    assert err.startswith(f"error: malformed direction scores in {path}: ")


@pytest.mark.parametrize("command", [["evaluate"], ["report", "resource"],
                                     ["report", "directions"]], ids=" ".join)
@pytest.mark.parametrize("row, message", [
    ('"spbleu": true, "comet": 86.23', "spbleu: expected a number, got True"),
    ('"spbleu": 25.04, "comet": "86.2"', "comet: expected a number, got '86.2'"),
    ('"spbleu": 25.04, "comet": 86.23, "n_samples": "3"',
     "n_samples: expected an integer, got '3'"),
    ('"spbleu": 25.04, "comet": 86.23, "n_samples": 2.5',
     "n_samples: expected an integer, got 2.5"),
    ('"spbleu": 25.04, "comet": 86.23, "n_samples": true',
     "n_samples: expected an integer, got True"),
    ('"spbleu": NaN, "comet": 86.23', "spbleu: expected a finite number, got nan"),
    ('"spbleu": 25.04, "comet": Infinity', "comet: expected a finite number, got inf"),
    ('"spbleu": -Infinity, "comet": 86.23', "spbleu: expected a finite number, got -inf"),
], ids=["spbleu-bool", "comet-string", "n-samples-string", "n-samples-2.5", "n-samples-bool",
        "spbleu-NaN", "comet-Infinity", "spbleu-minus-Infinity"])
def test_mistyped_direction_score_is_refused_by_key(tmp_path, capsys, command, row, message):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": [{"direction": ["eng", "khm"], ' + row + "}]}")
    code, err = run_cli_err(
        command + ["--direction-scores", path, "--workspace", tmp_path / "ws"], capsys)
    assert code == 2
    assert err == f"error: malformed direction scores in {path}: ValueError: {message}\n"


def test_direction_score_rows_count_one_sample_by_default(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([{"direction": ["eng", "khm"], "spbleu": 25, "comet": 86.23}]))
    code, _ = run_cli(["report", "directions", "--direction-scores", path,
                       "--report", tmp_path / "r.json"], capsys)
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["rows"] == [{"direction": ["eng", "khm"], "spbleu": 25.0, "comet": 86.23,
                               "n_samples": 1}]


def test_evaluate_by_resource_order(dirscores, tmp_path, capsys):
    code, out = run_cli(
        ["evaluate", "--direction-scores", dirscores, "--by-resource",
         "--workspace", tmp_path / "ws"], capsys)
    assert code == 0
    lines = out.splitlines()
    start = lines.index("resource     spBLEU / COMET")
    assert lines[start + 1].startswith("Low")
    assert lines[start + 2].startswith("Med")
    assert lines[start + 3].startswith("High")


def test_evaluate_manifest_route(corpus_dir, capsys):
    ws = corpus_dir / "ws"
    table = write_piece_table(corpus_dir / "pieces.tsv")
    run_cli(["synth", corpus_dir / "train.jsonl", "--workspace", ws, "--mock",
             "--out", ws / "synth.jsonl"], capsys)
    run_cli(["translate", ws / "synth.jsonl", "--workspace", ws, "--mock",
             "--mode", "smt", "--out", ws / "hyp.jsonl"], capsys)
    code, out = run_cli(
        ["evaluate", ws / "synth.jsonl", "--hyp", ws / "hyp.jsonl",
         "--piece-table", table, "--workspace", ws, "--mock"], capsys)
    assert code == 0
    assert "eng-khm      100.0 / 100.0" in out
    assert out.splitlines()[-1] == "Avg          100.0 / 100.0"


def test_evaluate_direction_filter_scores_only_that_direction(corpus_dir, monkeypatch, capsys):
    from evoloop.backends.mock import MockScorer

    calls = []
    original = MockScorer.score

    def counted(self, payload):
        calls.append(payload)
        return original(self, payload)

    monkeypatch.setattr(MockScorer, "score", counted)
    ws = corpus_dir / "ws"
    rows = make_rows(3) + make_rows(2, tgt="lao", stem="omega")
    manifest = write_manifest(corpus_dir / "two.jsonl", rows)
    hyp = write_manifest(ws / "hyp.jsonl", [
        {"id": hash_sample(r["text"], r["reference"], r["src_lang"], r["tgt_lang"]),
         "text": r["reference"]} for r in rows])
    table = write_piece_table(corpus_dir / "pieces.tsv")
    code, out = run_cli(
        ["evaluate", manifest, "--hyp", hyp, "--piece-table", table,
         "--direction", "eng-lao", "--workspace", ws, "--mock"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "direction    spBLEU / COMET",
        "eng-lao      100.0 / 100.0",
        "Avg          100.0 / 100.0",
    ]
    assert len(calls) == 2
    code, _ = run_cli(
        ["evaluate", manifest, "--hyp", hyp, "--piece-table", table,
         "--direction", "eng-fra", "--workspace", ws, "--mock"], capsys)
    assert code == 2
    assert len(calls) == 2


def test_evaluate_direction_needs_hypotheses_only_for_its_rows(corpus_dir, capsys):
    ws = corpus_dir / "ws"
    khm = make_rows(2)
    manifest = write_manifest(corpus_dir / "m.jsonl", khm + make_rows(2, tgt="deu"))
    hyp = write_manifest(ws / "hyp.jsonl", hyp_rows(khm))
    table = write_piece_table(corpus_dir / "pieces.tsv")
    argv = ["evaluate", manifest, "--hyp", hyp, "--piece-table", table,
            "--workspace", ws, "--mock"]
    code, out = run_cli(argv + ["--direction", "eng-khm"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "eng-khm      100.0 / 100.0"
    code, err = run_cli_err(argv, capsys)
    assert code == 1
    assert "2 sample(s) lack hypotheses" in err


def test_evaluate_scores_every_direction_in_one_fan_out(corpus_dir, monkeypatch, capsys):
    from evoloop.backends.mock import MockScorer

    sources = []
    original = MockScorer.score

    def counted(self, payload):
        sources.append(payload["source"])
        return original(self, payload)

    batches = []
    real = phases.run_batch

    def spy(tasks, max_in_flight):
        batches.append(len(tasks))
        return real(tasks, max_in_flight=max_in_flight)

    monkeypatch.setattr(MockScorer, "score", counted)
    monkeypatch.setattr(phases, "run_batch", spy)
    ws = corpus_dir / "ws"
    rows = make_rows(3) + make_rows(2, tgt="lao", stem="omega") + make_rows(1, tgt="tha")
    manifest = write_manifest(corpus_dir / "three.jsonl", rows)
    hyp = write_manifest(ws / "hyp.jsonl", [
        {"id": hash_sample(r["text"], r["reference"], r["src_lang"], r["tgt_lang"]),
         "text": r["reference"] if r["tgt_lang"] != "lao" else r["text"].split()[0]}
        for r in rows])
    table = write_piece_table(corpus_dir / "pieces.tsv")
    code, out = run_cli(
        ["evaluate", manifest, "--hyp", hyp, "--piece-table", table,
         "--direction", "eng-tha,eng-lao", "--workspace", ws, "--mock"], capsys)
    assert code == 0
    assert batches == [3]
    # input order, not --direction order
    assert sources == [r["text"] for r in rows[3:]]
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["eng-lao", "eng-tha"]
    assert lines[1].endswith(f"/ {fmt1(2 / 5 * 100)}")
    assert lines[2] == "eng-tha      100.0 / 100.0"


def test_evaluate_fails_on_one_failed_sample(corpus_dir, monkeypatch, capsys):
    from evoloop.backends.mock import MockScorer

    rows = make_rows(3) + make_rows(2, tgt="lao", stem="omega")
    real = MockScorer.score

    def fail_one(self, payload):
        if payload["source"] == rows[4]["text"]:
            raise PermanentBackendError(422, "bad-input", "scripted")
        return real(self, payload)

    monkeypatch.setattr(MockScorer, "score", fail_one)
    ws = corpus_dir / "ws"
    manifest = write_manifest(corpus_dir / "two.jsonl", rows)
    hyp = write_manifest(ws / "hyp.jsonl", [
        {"id": hash_sample(r["text"], r["reference"], r["src_lang"], r["tgt_lang"]),
         "text": r["reference"]} for r in rows])
    table = write_piece_table(corpus_dir / "pieces.tsv")
    code, out = run_cli(
        ["evaluate", manifest, "--hyp", hyp, "--piece-table", table,
         "--workspace", ws, "--mock"], capsys)
    assert code == 1
    assert out == ""
    assert not (ws / "reports" / "evaluate.json").exists()


def test_evaluate_requires_hypotheses(corpus_dir, capsys):
    code, _ = run_cli(
        ["evaluate", corpus_dir / "train.jsonl",
         "--workspace", corpus_dir / "ws", "--mock"], capsys)
    assert code == 1


def test_evaluate_requires_piece_table(corpus_dir, capsys):
    ws = corpus_dir / "ws"
    hyp = write_manifest(ws / "hyp.jsonl", [])
    code, _ = run_cli(
        ["evaluate", corpus_dir / "train.jsonl", "--hyp", hyp,
         "--workspace", ws, "--mock"], capsys)
    # hypothesis coverage is checked first, so seed full coverage
    rows = [{"id": hash_sample(r["text"], r["reference"], "eng", "khm"),
             "text": r["reference"]} for r in make_rows(6)]
    hyp = write_manifest(ws / "hyp2.jsonl", rows)
    code, err = run_cli_err(
        ["evaluate", corpus_dir / "train.jsonl", "--hyp", hyp,
         "--workspace", ws, "--mock"], capsys)
    assert code == 2
    assert "piece_table_path" in err


@pytest.mark.parametrize("metrics, message", [
    ({"smoothing": "bogus"}, "metrics.smoothing config must be one of ['exp', 'none']"),
    ({"smoothing": None}, "metrics.smoothing config must be one of ['exp', 'none']"),
    ({"piece_table_path": 5}, "metrics.piece_table_path config must be a JSON string"),
    ({"piece_table_path": ["p.tsv"]}, "metrics.piece_table_path config must be a JSON string"),
])
def test_bad_metrics_config_is_refused_before_any_input_is_read(
        corpus_dir, capsys, monkeypatch, metrics, message):
    ws = corpus_dir / "ws"
    rows = [{"id": hash_sample(r["text"], r["reference"], "eng", "khm"),
             "text": r["reference"]} for r in make_rows(6)]
    hyp = write_manifest(ws / "hyp.jsonl", rows)
    conf = corpus_dir / "conf.json"
    conf.write_text(json.dumps({"metrics": {"piece_table_path": "p.tsv", **metrics}}))
    opened = []
    real_open = open

    def recording_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    code, err = run_cli_err(
        ["evaluate", corpus_dir / "train.jsonl", "--hyp", hyp,
         "--workspace", ws, "--mock", "--config", conf], capsys)
    assert code == 2
    assert message in err
    # only the config file was opened: no manifest, no hypotheses, no piece table
    assert opened == [str(conf)]


# --- loop -----------------------------------------------------------------------

def test_loop_single_round(corpus_dir, capsys):
    code, out = run_cli(loop_argv(corpus_dir, extra=["--max-rounds", "1"]), capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0] == (
        "round 1: positives=6 negatives=0 eval=81.9 delta=+1.9 MaxRounds"
    )


def test_loop_converges_with_schedule(corpus_dir, capsys):
    code, out = run_cli(loop_argv(corpus_dir), capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert [l.split()[-1] for l in lines] == [
        "Improved", "Improved", "Improved", "Converged"
    ]
    assert lines[-1].startswith("round 4:")


def test_loop_lines_match_state_files(corpus_dir, capsys):
    code, out = run_cli(loop_argv(corpus_dir), capsys)
    assert code == 0
    for line in out.strip().splitlines():
        index = int(line.split(":")[0].split()[1])
        state = json.loads(
            (corpus_dir / "ws" / "rounds" / str(index) / "state.json").read_text())
        assert f"positives={state['n_positive']}" in line
        assert f"negatives={state['n_negative']}" in line
        assert f"eval={fmt1(state['eval_score'] * 100)}" in line
        assert f"delta={fmt1(state['delta_vs_best'] * 100, signed=True)}" in line
        assert line.endswith(state["status"])


def test_loop_workspace_holds_only_journal_rounds_and_cache(corpus_dir, capsys):
    code, _ = run_cli(loop_argv(corpus_dir), capsys)
    assert code == 0
    ws = corpus_dir / "ws"
    assert sorted(p.name for p in ws.iterdir()) == ["cache", "journal.json", "rounds"]


def test_loop_rerun_prints_identical_output(corpus_dir, capsys):
    code, first = run_cli(loop_argv(corpus_dir), capsys)
    assert code == 0
    code, second = run_cli(loop_argv(corpus_dir), capsys)
    assert code == 0
    assert first == second


def test_loop_missing_manifest_is_config_error(tmp_path, capsys):
    code, _ = run_cli(
        ["loop", "--train", tmp_path / "no.jsonl", "--eval", tmp_path / "no.jsonl",
         "--workspace", tmp_path / "ws", "--mock"], capsys)
    assert code == 2


# --- report rounds ----------------------------------------------------------------

def test_report_rounds_table_and_csv_agree(corpus_dir, capsys):
    run_cli(loop_argv(corpus_dir), capsys)
    csv_path = corpus_dir / "rounds.csv"
    code, out = run_cli(
        ["report", "rounds", "--workspace", corpus_dir / "ws", "--csv", csv_path],
        capsys)
    assert code == 0
    table_lines = out.strip().splitlines()
    with open(csv_path, newline="") as fh:
        csv_rows = list(csv.reader(fh))
    assert len(csv_rows) == len(table_lines)
    for line, row in zip(table_lines, csv_rows):
        assert line.split() == [cell for cell in row if cell]
    raw = csv_path.read_bytes()
    assert raw.count(b"\r\n") == len(table_lines) and raw.endswith(b"\r\n")
    assert b"\n" not in raw.replace(b"\r\n", b"")
    assert list(corpus_dir.glob("*.tmp")) == []


def test_report_rounds_deltas_match_recomputation(corpus_dir, capsys):
    run_cli(loop_argv(corpus_dir), capsys)
    report_path = corpus_dir / "report.json"
    code, _ = run_cli(
        ["report", "rounds", "--workspace", corpus_dir / "ws",
         "--report", report_path], capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    best = report["baseline"]
    for state in report["rounds"]:
        expected = state["eval_score"] - best
        assert state["delta_vs_best"] == pytest.approx(expected, abs=1e-12)
        best = max(best, state["eval_score"])


def test_report_rounds_single_round_delta_vs_baseline(corpus_dir, capsys):
    run_cli(loop_argv(corpus_dir, extra=["--max-rounds", "1"]), capsys)
    report_path = corpus_dir / "report.json"
    code, out = run_cli(
        ["report", "rounds", "--workspace", corpus_dir / "ws",
         "--report", report_path], capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert len(report["rounds"]) == 1
    state = report["rounds"][0]
    assert state["delta_vs_best"] == pytest.approx(
        state["eval_score"] - report["baseline"], abs=1e-12)
    assert "base" in out.splitlines()[1]


def test_report_rounds_empty_workspace(tmp_path, capsys):
    code, err = run_cli_err(
        ["report", "rounds", "--workspace", tmp_path / "ws"], capsys)
    assert code == 1
    assert "no completed rounds" in err


STATE, LEDGER = "rounds/1/state.json", "journal.json"


@pytest.fixture(scope="module")
def journaled_round(tmp_path_factory):
    """A workspace whose one round is journaled; each test copies it."""
    root = tmp_path_factory.mktemp("journaled")
    write_manifest(root / "train.jsonl", make_rows(6))
    write_manifest(root / "eval.jsonl", make_rows(4, tgt="lao", stem="omega"))
    assert main([str(a) for a in loop_argv(root, extra=["--max-rounds", "1"])]) == 0
    return root / "ws"


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _with_evaluation(ledger, entry):
    """The ledger with round 1's evaluation entry replaced by `entry`."""
    return {**ledger, "rounds": {"1": {**ledger["rounds"]["1"], "evaluation": entry}}}


NOT_A_NUMBER = "journal.json: baseline: expected a number, got"


@pytest.mark.parametrize("path, edit, message", [
    # a ledger that is missing, does not parse or is not a journal leaves
    # nothing to report
    (LEDGER, lambda ledger: [], "ledger missing fingerprint"),
    (LEDGER, lambda ledger: "{", "unreadable ledger: Expecting property name enclosed "
     "in double quotes: line 1 column 2 (char 1)"),
    (LEDGER, lambda ledger: None, "no completed rounds in {ws}"),
    # a journal whose baseline is absent or not a number names its ledger
    (LEDGER, lambda ledger: _without(ledger, "baseline"), f"{NOT_A_NUMBER} None"),
    (LEDGER, lambda ledger: {**ledger, "baseline": None}, f"{NOT_A_NUMBER} None"),
    # a journaled state.json the parser refuses names its file and key
    (STATE, lambda state: [], "expected a JSON object, got []"),
    (STATE, lambda state: _without(state, "eval_score"), "lacks 'eval_score'"),
    (STATE, lambda state: "{",
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (STATE, lambda state: {**state, "eval_score": "x"}, "eval_score: expected a number, got 'x'"),
    (STATE, lambda state: {**state, "eval_score": True}, "eval_score: expected a number, got True"),
    (STATE, lambda state: {**state, "status": 3}, "status: expected a string, got 3"),
    (STATE, lambda state: {**state, "eval_by_direction": 5},
     "eval_by_direction: expected an object, got 5"),
    (STATE, lambda state: {**state, "eval_by_direction": {"eng-lao": "x"}},
     "eval_by_direction: expected a number, got 'x'"),
    (LEDGER, lambda ledger: {**ledger, "baseline": "x"}, f"{NOT_A_NUMBER} 'x'"),
    (LEDGER, lambda ledger: {**ledger, "baseline": True}, f"{NOT_A_NUMBER} True"),
    # json.dumps writes NaN and Infinity as tokens that JSON lacks
    (LEDGER, lambda ledger: {**ledger, "baseline": float("nan")},
     "journal.json: baseline: expected a finite number, got nan"),
    (STATE, lambda state: {**state, "delta_vs_best": float("-inf")},
     "delta_vs_best: expected a finite number, got -inf"),
    # a ledger whose rounds, phase entries or file maps are not objects, or
    # whose model version is not an integer, names the key
    (LEDGER, lambda ledger: {**ledger, "rounds": []},
     "journal.json: rounds: expected an object, got []"),
    (LEDGER, lambda ledger: {**ledger, "rounds": {"1": []}},
     "journal.json: rounds.1: expected an object, got []"),
    (LEDGER, lambda ledger: _with_evaluation(ledger, []),
     "journal.json: rounds.1.evaluation: expected an object, got []"),
    (LEDGER, lambda ledger: _with_evaluation(ledger, {"files": []}),
     "journal.json: rounds.1.evaluation.files: expected an object of strings, got []"),
    (LEDGER, lambda ledger: _with_evaluation(ledger, {"files": {STATE: 5}}),
     "journal.json: rounds.1.evaluation.files: expected an object of strings, "
     "got {{'rounds/1/state.json': 5}}"),
    (LEDGER, lambda ledger: {**ledger, "model_version": True},
     "journal.json: model_version: expected an integer, got True"),
    (LEDGER, lambda ledger: {**ledger, "model_version": "1"},
     "journal.json: model_version: expected an integer, got '1'"),
], ids=["ledger-list", "ledger-unparsable", "ledger-missing", "ledger-baseline-absent",
        "ledger-baseline-null", "state-list", "state-missing-key",
        "state-unparsable", "state-score-string", "state-score-bool", "state-status-number",
        "state-directions-number", "state-direction-string", "ledger-baseline-string",
        "ledger-baseline-bool", "ledger-baseline-NaN", "state-delta-minus-Infinity",
        "ledger-rounds-list", "ledger-round-list", "ledger-phase-list",
        "ledger-files-list", "ledger-digest-number", "ledger-model-version-bool",
        "ledger-model-version-string"])
def test_report_rounds_malformed_workspace_files(journaled_round, tmp_path, capsys, path,
                                                 edit, message):
    ws = tmp_path / "ws"
    shutil.copytree(journaled_round, ws)
    content = edit(json.loads((ws / path).read_text()))
    if content is None:
        (ws / path).unlink()
    else:
        data = (content if isinstance(content, str) else json.dumps(content)).encode()
        (ws / path).write_bytes(data)
    if path == STATE:
        # journal the edit, so that the parser, not the digest check, meets it
        ledger = json.loads((ws / LEDGER).read_text())
        ledger["rounds"]["1"]["evaluation"]["files"][STATE] = hashlib.sha256(data).hexdigest()
        (ws / LEDGER).write_text(json.dumps(ledger))
        message = f"{STATE}: {message}"
    assert main(["report", "rounds", "--workspace", str(ws)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message.format(ws=ws)}\n")


def test_report_rounds_refuses_a_tampered_round_as_the_resume_does(corpus_dir, capsys):
    assert run_cli(loop_argv(corpus_dir), capsys)[0] == 0
    ws = corpus_dir / "ws"
    state = json.loads((ws / "rounds" / "2" / "state.json").read_text())
    for k in (2, 9):
        (ws / "rounds" / str(k)).mkdir(exist_ok=True)
        (ws / "rounds" / str(k) / "state.json").write_text(
            json.dumps({**state, "eval_score": 0.99}))
    for argv in (["report", "rounds", "--workspace", ws], loop_argv(corpus_dir)):
        code = main([str(a) for a in argv])
        assert (code, *capsys.readouterr()) == (
            1, "", "error: journaled file modified: rounds/2/state.json\n")


def test_report_rounds_leaves_out_a_stray_state_file(corpus_dir, capsys):
    assert run_cli(loop_argv(corpus_dir), capsys)[0] == 0
    ws = corpus_dir / "ws"
    argv = ["report", "rounds", "--workspace", ws]
    before = run_cli(argv, capsys)
    state = json.loads((ws / "rounds" / "4" / "state.json").read_text())
    (ws / "rounds" / "9").mkdir()
    (ws / "rounds" / "9" / "state.json").write_text(json.dumps({**state, "round_index": 9}))
    assert run_cli(argv, capsys) == before
    assert [line.split()[0] for line in before[1].splitlines()] == [
        "round", "base", "1", "2", "3", "4"]


def test_fresh_loop_reads_no_journaled_file_back(corpus_dir, capsys, monkeypatch):
    # each fresh step hands record_phase the bytes it wrote; only a
    # resume's phase_done reads journaled files, each once
    read_file = journal._read_file
    reads = []

    def counting(path):
        reads.append(Path(path).relative_to(corpus_dir / "ws").as_posix())
        return read_file(path)

    monkeypatch.setattr(journal, "_read_file", counting)
    assert run_cli(loop_argv(corpus_dir), capsys)[0] == 0
    assert reads == []
    ledger = json.loads((corpus_dir / "ws" / "journal.json").read_text())
    recorded = [f for phases in ledger["rounds"].values()
                for entry in phases.values() for f in entry["files"]]
    assert len(recorded) == 1 + 4 * 5
    assert run_cli(loop_argv(corpus_dir), capsys)[0] == 0
    assert sorted(reads) == sorted(recorded)


class Killed(BaseException):
    """Stands in for a kill: main's error channel does not catch it."""


def test_report_rounds_leaves_out_a_round_whose_evaluation_is_unrecorded(
        corpus_dir, capsys, monkeypatch):
    record_phase = Journal.record_phase

    def killed_before_round_2_evaluation(self, round_index, phase, written, trained=None):
        if (round_index, phase) == (2, "evaluation"):
            raise Killed
        record_phase(self, round_index, phase, written, trained=trained)

    with monkeypatch.context() as patch:
        patch.setattr(Journal, "record_phase", killed_before_round_2_evaluation)
        with pytest.raises(Killed):
            main([str(a) for a in loop_argv(corpus_dir)])
    ws = corpus_dir / "ws"
    assert (ws / "rounds" / "2" / "state.json").is_file()
    code, out = run_cli(["report", "rounds", "--workspace", ws], capsys)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["round", "base", "1"]


def test_report_rounds_multi_direction_columns(tmp_path, capsys):
    write_manifest(tmp_path / "train.jsonl", make_rows(6))
    mixed = make_rows(2, tgt="lao", stem="omega") + make_rows(2, tgt="mya", stem="psi")
    write_manifest(tmp_path / "eval.jsonl", mixed)
    run_cli(loop_argv(tmp_path, extra=["--max-rounds", "1"]), capsys)
    code, out = run_cli(
        ["report", "rounds", "--workspace", tmp_path / "ws"], capsys)
    assert code == 0
    header = out.splitlines()[0].split()
    assert header == ["round", "eval", "delta", "status", "eng-lao", "eng-mya"]


# --- report resource / directions --------------------------------------------------

def test_report_directions_table(dirscores, tmp_path, capsys):
    code, out = run_cli(
        ["report", "directions", "--direction-scores", dirscores,
         "--workspace", tmp_path / "ws"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "Avg          31.1 / 86.8"


def test_report_resource_groups(dirscores, tmp_path, capsys):
    code, out = run_cli(
        ["report", "resource", "--direction-scores", dirscores,
         "--workspace", tmp_path / "ws"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "resource     spBLEU / COMET",
        "Low          25.0 / 86.2",
        "Med          31.0 / 85.0",
        "High         37.2 / 89.1",
    ]


def test_report_rerun_identical(dirscores, tmp_path, capsys):
    argv = ["report", "directions", "--direction-scores", dirscores,
            "--workspace", tmp_path / "ws"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second


# --- committed report goldens -------------------------------------------------

DOCS_DIR = Path(__file__).resolve().parents[1] / "docs"

GOLDEN_COMMANDS = [
    "validate", "synth", "translate", "score", "classify",
    "evaluate", "loop", "report_rounds", "report_resource", "report_directions",
]


def build_golden_reports(root):
    """Run every subcommand with fixed inputs and relative paths.

    Callers must chdir to root first; relative paths keep the report
    payloads identical regardless of where the scenario runs.
    """
    root = Path(root)
    write_manifest(root / "train.jsonl", make_rows(6))
    mixed = make_rows(2, tgt="lao", stem="omega") + make_rows(2, tgt="mya", stem="psi")
    write_manifest(root / "eval.jsonl", mixed)
    write_piece_table(root / "pieces.tsv")
    (root / "dirscores.json").write_text(json.dumps({"rows": DIR_ROWS}))

    jobs = [
        ("validate", ["validate", "train.jsonl"]),
        ("synth", ["synth", "train.jsonl", "--out", "ws/synth.jsonl"]),
        ("translate", ["translate", "ws/synth.jsonl", "--mode", "smt",
                       "--out", "ws/hyp.smt.jsonl"]),
        (None, ["translate", "ws/synth.jsonl", "--mode", "mt",
                "--out", "ws/hyp.mt.jsonl"]),
        ("score", ["score", "ws/synth.jsonl", "--hyp", "ws/hyp.mt.jsonl",
                   "--out", "ws/scores.jsonl"]),
        ("classify", ["classify", "ws/synth.jsonl", "--out", "ws/classify"]),
        ("evaluate", ["evaluate", "ws/synth.jsonl", "--hyp", "ws/hyp.mt.jsonl",
                      "--piece-table", "pieces.tsv"]),
        ("loop", ["loop", "--train", "train.jsonl", "--eval", "eval.jsonl",
                  "--mock-schedule", SCHEDULE, "--seed", "13"]),
        ("report_rounds", ["report", "rounds"]),
        ("report_resource", ["report", "resource",
                             "--direction-scores", "dirscores.json"]),
        ("report_directions", ["report", "directions",
                               "--direction-scores", "dirscores.json"]),
    ]
    produced = {}
    for name, argv in jobs:
        argv = argv + ["--workspace", "ws", "--mock"]
        if name:
            report = f"out/{name}.json"
            argv += ["--report", report]
            produced[name] = root / report
        code = main(argv)
        assert code == 0, f"{argv[0]} exited {code}"
    return produced


def build_jobspec_examples(golden_root):
    from evoloop.curriculum import plan_stages

    bindings = {
        "ASR": "corpora/asr_transcripts.jsonl",
        "S2TT": "corpora/s2tt_pairs.jsonl",
        "SMT": ["corpora/mt_parallel.jsonl", "corpora/smt_triplets.jsonl"],
    }
    examples = {spec.stage.value.lower(): spec.to_json()
                for spec in plan_stages(bindings)}
    continual = json.loads(
        (Path(golden_root) / "ws" / "rounds" / "1" / "jobspec.json").read_text())
    examples["continualsmt"] = continual
    return examples


def test_golden_reports_match_committed(tmp_path, monkeypatch, capsys):
    import os as _os

    monkeypatch.chdir(tmp_path)
    produced = build_golden_reports(tmp_path)
    jobspecs = build_jobspec_examples(tmp_path)
    capsys.readouterr()
    if _os.environ.get("EVOLOOP_WRITE_GOLDENS"):
        (DOCS_DIR / "reports").mkdir(parents=True, exist_ok=True)
        (DOCS_DIR / "jobspecs").mkdir(parents=True, exist_ok=True)
        for name, path in produced.items():
            (DOCS_DIR / "reports" / f"{name}.json").write_text(path.read_text())
        for name, payload in jobspecs.items():
            (DOCS_DIR / "jobspecs" / f"{name}.json").write_text(
                json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
                + "\n")
        pytest.skip("goldens rewritten")
    for name in GOLDEN_COMMANDS:
        committed = json.loads((DOCS_DIR / "reports" / f"{name}.json").read_text())
        assert json.loads(produced[name].read_text()) == committed, name
    for name, payload in jobspecs.items():
        committed = json.loads((DOCS_DIR / "jobspecs" / f"{name}.json").read_text())
        assert payload == committed, name


# --- one parser per process ----------------------------------------------------

def test_reused_parser_gives_what_fresh_parsers_give(dirscores, tmp_path, capsys):
    ws = tmp_path / "ws"
    evaluate = ["evaluate", "--direction-scores", dirscores, "--workspace", ws]
    calls = [
        evaluate + ["--direction", "eng-deu", "--by-resource"],
        evaluate,
        ["report", "resource", "--direction-scores", dirscores, "--workspace", ws],
        evaluate + ["--report", tmp_path / "evaluate.json"],
        ["validate", tmp_path / "absent.jsonl"],
        evaluate,
    ]

    def run_all(fresh):
        results = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            code, out = run_cli(argv, capsys)
            results.append((code, out, (ws / "reports" / "evaluate.json").read_text()))
        return results

    fresh = run_all(fresh=True)
    assert run_all(fresh=False) == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 0]
    assert len(fresh[1][1].splitlines()) == 2 + len(DIR_ROWS)


def test_usage_error_leaves_the_parser_usable(dirscores, tmp_path, capsys):
    argv = ["report", "directions", "--direction-scores", dirscores,
            "--workspace", tmp_path / "ws"]
    first = run_cli(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + ["--direction", "eng-khm", "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert run_cli(argv, capsys) == first
    assert len(first[1].splitlines()) == 2 + len(DIR_ROWS)


HELP_COMMANDS = [[], ["report"]] + [name.split("_") for name in GOLDEN_COMMANDS]


@pytest.mark.parametrize("command", HELP_COMMANDS, ids=lambda c: " ".join(c) or "evoloop")
def test_help_is_the_same_on_every_call(command, capsys):
    build_parser.cache_clear()
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith(f"usage: {' '.join(['evoloop'] + command)} ")


def test_main_builds_the_parser_once(dirscores, tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    argv = ["report", "directions", "--direction-scores", dirscores,
            "--workspace", tmp_path / "ws"]
    assert run_cli(argv, capsys)[0] == 0
    # the top-level parser plus one per subcommand and report kind
    assert len(built) == 1 + 8 + 3
    assert run_cli(argv, capsys)[0] == 0
    assert run_cli(["evaluate", "--direction-scores", dirscores,
                    "--workspace", tmp_path / "ws"], capsys)[0] == 0
    assert len(built) == 12


# --- fan-out width ---------------------------------------------------------------

@pytest.fixture
def fan_out_widths(monkeypatch):
    """Every width the loop's phases fan out at, in call order."""
    widths = []
    real = phases.run_batch

    def spy(tasks, max_in_flight):
        widths.append(max_in_flight)
        return real(tasks, max_in_flight=max_in_flight)

    monkeypatch.setattr(phases, "run_batch", spy)
    return widths


def test_mock_commands_fan_out_at_width_one(corpus_dir, capsys, fan_out_widths):
    ws = corpus_dir / "ws"
    table = write_piece_table(corpus_dir / "pieces.tsv")
    for argv in (
        loop_argv(corpus_dir),
        ["synth", corpus_dir / "train.jsonl", "--workspace", ws, "--mock",
         "--out", ws / "synth.jsonl"],
        ["classify", ws / "synth.jsonl", "--workspace", ws, "--mock",
         "--out", ws / "classify"],
        ["translate", ws / "synth.jsonl", "--workspace", ws, "--mock",
         "--mode", "smt", "--out", ws / "hyp.jsonl"],
        ["score", ws / "synth.jsonl", "--hyp", ws / "hyp.jsonl",
         "--workspace", ws, "--mock"],
        ["evaluate", ws / "synth.jsonl", "--hyp", ws / "hyp.jsonl",
         "--piece-table", table, "--workspace", ws, "--mock"],
    ):
        before = len(fan_out_widths)
        assert run_cli(argv, capsys)[0] == 0
        assert len(fan_out_widths) > before, argv[0]
        assert set(fan_out_widths[before:]) == {1}, argv[0]


def test_http_stack_fans_out_at_eight(tmp_path):
    endpoints = {name: EndpointConfig(base_url="http://127.0.0.1:9")
                 for name in ("tts", "translate", "score")}
    with build_stack(RunConfig(endpoints=endpoints), tmp_path) as stack:
        assert stack.max_in_flight == 8


def test_fan_out_width_has_no_default():
    # the stack owns the width; every fan-out takes it from its caller
    for fn in (run_batch, run_acquisition, run_refinement, run_evaluation, run_loop,
               wire_stack, phases.fan_out):
        param = inspect.signature(fn).parameters["max_in_flight"]
        assert param.default is inspect.Parameter.empty, fn.__name__
    # and its caller sets the failure budget: the phases' share or a command's none
    for name in ("max_in_flight", "budget"):
        param = inspect.signature(phases.fan_out).parameters[name]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY, name
        assert param.default is inspect.Parameter.empty, name


def test_run_loop_requires_the_version_cell():
    # without it, rounds after an update would read pre-update cache entries
    version = inspect.signature(run_loop).parameters["version"]
    assert version.kind is inspect.Parameter.KEYWORD_ONLY
    assert version.default is inspect.Parameter.empty


def test_translate_refuses_missing_audio_before_any_request(corpus_dir, capsys, monkeypatch):
    from evoloop.backends.mock import ContrastTranslator

    ws = corpus_dir / "ws"
    run_cli(["synth", corpus_dir / "train.jsonl", "--workspace", ws, "--mock",
             "--out", ws / "synth.jsonl"], capsys)
    rows = [json.loads(line) for line in (ws / "synth.jsonl").read_text().splitlines()]
    manifest = write_manifest(corpus_dir / "mixed.jsonl", rows + make_rows(1, stem="bare"))
    calls = []
    real = ContrastTranslator.translate

    def counted(self, payload):
        calls.append(payload)
        return real(self, payload)

    monkeypatch.setattr(ContrastTranslator, "translate", counted)
    code, err = run_cli_err(
        ["translate", manifest, "--workspace", ws, "--mock", "--mode", "smt"], capsys)
    assert code == 1
    assert "has no usable audio" in err
    # every task is made before any runs, so the audio check comes first
    assert calls == []
    assert not (ws / "hyp.smt.jsonl").exists()


def test_score_fails_on_one_failed_sample(corpus_dir, capsys, monkeypatch):
    from evoloop.backends.mock import MockScorer

    rows = make_rows(6)
    ids = [hash_sample(r["text"], r["reference"], "eng", "khm") for r in rows]
    hyp = write_manifest(corpus_dir / "hyp.jsonl", hyp_rows(rows))
    real = MockScorer.score

    def fail_one(self, payload):
        if payload["source"] == rows[3]["text"]:
            raise PermanentBackendError(422, "bad-input", "scripted")
        return real(self, payload)

    monkeypatch.setattr(MockScorer, "score", fail_one)
    # no root handlers, as in a plain `evoloop` run: the failed sample's
    # warning reaches stderr through logging's last-resort handler
    root = logging.getLogger()
    handlers = root.handlers[:]
    for handler in handlers:
        root.removeHandler(handler)
    try:
        code, err = run_cli_err(
            ["score", corpus_dir / "train.jsonl", "--hyp", hyp,
             "--workspace", corpus_dir / "ws", "--mock"], capsys)
    finally:
        for handler in handlers:
            root.addHandler(handler)
    assert code == 1
    assert f"scoring failed for {ids[3]}" in err
    assert [i for i in ids if i in err] == [ids[3]]
    assert "scoring: 1/6 samples failed after retries (budget 0%)" in err
    assert not (corpus_dir / "ws" / "scores.jsonl").exists()
