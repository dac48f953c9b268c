"""Command-line driver tying corpus, metrics, backends, and the loop together.

Config resolution: built-in defaults, then the --config JSON file, then
the EVOLOOP_WORKSPACE environment variable (workspace key only), then
command-line flags. Flags always win.

Every subcommand shares one skeleton in `main`: load the config, make
the workspace, run the command, write its JSON report, map exceptions to
exit codes. A `cmd_*` function takes `(args, cfg, ws)` and returns
`(exit_code, report_payload)`; it only does its own work. The argument
parser is built once per process, on the first `build_parser()` or
`main()` call, and every later call reuses it.

Exit codes are a stable contract: 0 success, 1 validation or domain
failure, 2 I/O or configuration failure.

Human-readable tables render at one decimal, matching the reporting
convention of the evaluation tables this tool feeds; JSON reports carry
full precision.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import logging
import os
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .atomic import write_atomic, write_jsonl
from .backends.clients import EndpointConfig
from .backends.mock import LookupTranslator
from .corpus import (
    ResourceLevel,
    Sample,
    load_manifest,
    sample_from_json,
    save_manifest,
    split_directions,
)
from .errors import EvoloopError, MissingHypotheses, NoRounds, ResumeStateCorrupt
from .evolution import (
    EvolutionConfig,
    ModelVersion,
    fan_out,
    partition_and_emit,
    pick_audio,
    run_acquisition,
    run_refinement,
)
from .evolution.journal import write_json
from .evolution.loop import run_loop
from .metrics.aggregate import (
    DirectionScore,
    aggregate_by_resource,
    average_directions,
    round1,
)
from .metrics.bleu import SMOOTHINGS, corpus_spbleu
from .metrics.spm import load_piece_table
from .mockstack import DEFAULT_VOICE_POOL, build_mock_stack, wire_stack

log = logging.getLogger(__name__)


class UsageError(Exception):
    """Configuration or invocation problem; maps to exit code 2."""


Outcome = Tuple[int, dict]  # a subcommand's exit code and JSON report payload


# --- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    workspace: str = "."
    endpoints: Dict[str, EndpointConfig] = field(default_factory=dict)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    smoothing: str = "exp"
    piece_table_path: Optional[str] = None
    strict_manifests: bool = False
    update_hook: Optional[str] = None
    voices: Tuple[str, ...] = DEFAULT_VOICE_POOL
    token: Optional[str] = None
    mock: bool = False
    mock_schedule: Optional[Tuple[float, ...]] = None


_CONFIG_KEYS = {
    "top-level": {"workspace", "endpoints", "evolution", "metrics", "strict_manifests",
                  "update_hook", "voices", "token"},
    "endpoints": {"tts", "translate", "score"},
    "endpoint": {"base_url", "timeout_s", "max_attempts", "backoff_base_ms"},
    "evolution": set(EvolutionConfig().to_json()),
    "metrics": {"smoothing", "piece_table_path"},
}
_SCALAR_KEYS = {
    "top-level": {"workspace": str, "update_hook": str, "token": str, "strict_manifests": bool},
    "metrics": {"piece_table_path": str},
}


def _config_section(obj, where: str) -> dict:
    """A config object whose keys all take effect; any other key is refused."""
    if not isinstance(obj, dict):
        raise UsageError(f"{where} config must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS[where]
    if unknown:
        raise UsageError(f"unknown {where} config keys: {sorted(unknown)}")
    prefix = "" if where == "top-level" else f"{where}."
    for key, kind in _SCALAR_KEYS.get(where, {}).items():
        if key in obj and not isinstance(obj[key], kind):
            name = "boolean" if kind is bool else "string"
            raise UsageError(f"{prefix}{key} config must be a JSON {name}")
    return obj


def load_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        raw = _config_section(raw, "top-level")
        voices = raw.get("voices", list(cfg.voices))
        if not isinstance(voices, list) or not all(isinstance(v, str) for v in voices):
            raise UsageError("voices config must be a JSON list of strings")
        try:
            endpoints = {
                name: EndpointConfig(**_config_section(spec, "endpoint"))
                for name, spec in _config_section(raw.get("endpoints", {}), "endpoints").items()
            }
            metrics = _config_section(raw.get("metrics", {}), "metrics")
            if metrics.get("smoothing", cfg.smoothing) not in SMOOTHINGS:
                raise UsageError(f"metrics.smoothing config must be one of {list(SMOOTHINGS)}")
            evolution = _config_section(raw.get("evolution", {}), "evolution")
            cfg = RunConfig(
                workspace=raw.get("workspace", cfg.workspace),
                endpoints=endpoints,
                evolution=EvolutionConfig.from_json(evolution),
                smoothing=metrics.get("smoothing", cfg.smoothing),
                piece_table_path=metrics.get("piece_table_path"),
                strict_manifests=raw.get("strict_manifests", cfg.strict_manifests),
                update_hook=raw.get("update_hook"),
                voices=tuple(voices),
                token=raw.get("token"),
            )
        except (TypeError, ValueError) as exc:
            raise UsageError(f"invalid config value: {exc}") from exc

    env_workspace = os.environ.get("EVOLOOP_WORKSPACE")
    if env_workspace:
        cfg = replace(cfg, workspace=env_workspace)

    if getattr(args, "workspace", None):
        cfg = replace(cfg, workspace=args.workspace)
    if getattr(args, "mock", False):
        cfg = replace(cfg, mock=True)
    if getattr(args, "strict", False):
        cfg = replace(cfg, strict_manifests=True)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, evolution=replace(cfg.evolution, seed=args.seed))
    if getattr(args, "piece_table", None):
        cfg = replace(cfg, piece_table_path=args.piece_table)
    if getattr(args, "voices", None):
        cfg = replace(cfg, voices=tuple(v for v in args.voices.split(",") if v))
    if getattr(args, "update_hook", None):
        cfg = replace(cfg, update_hook=args.update_hook)
    if getattr(args, "mock_schedule", None):
        try:
            schedule = tuple(float(x) for x in args.mock_schedule.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --mock-schedule: {exc}") from exc
        cfg = replace(cfg, mock_schedule=schedule)

    for name in ("epsilon", "patience", "max_rounds", "eval_voice", "speech_source"):
        value = getattr(args, name, None)
        if value is not None:
            key = "fixed_eval_voice" if name == "eval_voice" else name
            try:
                cfg = replace(cfg, evolution=replace(cfg.evolution, **{key: value}))
            except ValueError as exc:
                raise UsageError(f"invalid --{name.replace('_', '-')}: {exc}") from exc
    if not cfg.voices:
        raise UsageError("the voice pool is empty")
    return cfg


def _workspace(cfg: RunConfig) -> Path:
    ws = Path(cfg.workspace)
    try:
        ws.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"workspace not writable: {exc}") from exc
    return ws


def _lookup_outputs(samples: Sequence[Sample]) -> dict:
    """Mock translator table: speech-guided mode restores the trailing
    token that text-only mode drops, relative to the reference."""
    outputs = {}
    for sample in samples:
        outputs[("smt", sample.text)] = sample.reference
        head = " ".join(sample.reference.split()[:-1])
        outputs[("mt", sample.text)] = head or sample.reference
    return outputs


# calls each phase keeps in flight to the HTTP services
HTTP_MAX_IN_FLIGHT = 8


def build_stack(cfg: RunConfig, ws: Path, lookup_samples: Sequence[Sample] = ()):
    """Mock or HTTP backends behind the cached clients."""
    if cfg.mock:
        translator = None
        if cfg.mock_schedule is not None:
            translator = LookupTranslator(_lookup_outputs(lookup_samples))
        return build_mock_stack(
            str(ws), translator=translator, eval_schedule=cfg.mock_schedule
        )
    missing = [name for name in ("tts", "translate", "score")
               if name not in cfg.endpoints or not cfg.endpoints[name].base_url]
    if missing:
        raise UsageError(
            f"endpoints not configured: {', '.join(missing)} (or pass --mock)"
        )
    from .backends.transport import HttpTransport

    transports = [
        HttpTransport(ep.base_url, timeout_s=ep.timeout_s, token=cfg.token)
        for ep in (cfg.endpoints[name] for name in ("tts", "translate", "score"))
    ]
    return wire_stack(str(ws), ModelVersion(0), *transports,
                      max_in_flight=HTTP_MAX_IN_FLIGHT, endpoints=cfg.endpoints)


# --- rendering helpers --------------------------------------------------------

def fmt1(value: float, signed: bool = False) -> str:
    rounded = round1(value)
    return f"{rounded:+.1f}" if signed else f"{rounded:.1f}"


def _direction_str(direction: Tuple[str, str]) -> str:
    return f"{direction[0]}-{direction[1]}"


def _ws_name(path: Path, ws: Path) -> str:
    """How a report names an output file: bare if it sits in the workspace."""
    return str(path.name if path.parent == ws else path)


def _resource_report(rows: Sequence[DirectionScore]) -> dict:
    """Print the resource-level table; return its `groups` payload."""
    groups = aggregate_by_resource(rows)
    order = {level: i for i, level in enumerate(ResourceLevel)}
    print("resource     spBLEU / COMET")
    for level in sorted(groups, key=order.__getitem__):
        sp, comet = groups[level]
        print(f"{level.value:<12} {sp:.1f} / {comet:.1f}")
    return {
        level.value: {"spbleu": sp, "comet": comet}
        for level, (sp, comet) in groups.items()
    }


def _direction_report(command: str, rows: Sequence[DirectionScore]) -> dict:
    """Print the per-direction table with its Avg row; return the payload."""
    print("direction    spBLEU / COMET")
    for row in rows:
        name = _direction_str(row.direction)
        print(f"{name:<12} {fmt1(row.spbleu)} / {fmt1(row.comet)}")
    avg_sp, avg_comet = average_directions(rows)
    print(f"{'Avg':<12} {avg_sp:.1f} / {avg_comet:.1f}")
    return {
        "command": command,
        "rows": [
            {
                "direction": list(r.direction),
                "spbleu": r.spbleu,
                "comet": r.comet,
                "n_samples": r.n_samples,
            }
            for r in rows
        ],
        "avg": {"spbleu": avg_sp, "comet": avg_comet},
    }


# --- manifest/hypothesis plumbing ----------------------------------------------

def _load_samples(path: str, strict: bool) -> List[Sample]:
    try:
        return load_manifest(path, strict=strict)
    except FileNotFoundError as exc:
        raise UsageError(f"manifest not found: {path}") from exc


def _load_hypotheses(path: str, samples: Sequence[Sample]) -> Dict[str, str]:
    """JSONL of {"id":..., "text":...} rows keyed by sample id; every
    sample must have one."""
    hyps: Dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                if not (isinstance(obj, dict) and isinstance(obj.get("id"), str)
                        and isinstance(obj.get("text"), str)):
                    raise MissingHypotheses(
                        f"{path}:{line_no}: rows need string 'id' and 'text'"
                    )
                hyps[obj["id"]] = obj["text"]
    except FileNotFoundError as exc:
        raise MissingHypotheses(f"hypotheses file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise MissingHypotheses(f"{path}: invalid JSON: {exc}") from exc
    missing = [s.id for s in samples if s.id not in hyps]
    if missing:
        raise MissingHypotheses(
            f"{len(missing)} sample(s) lack hypotheses, first: {missing[0]}"
        )
    return hyps


def _language_pair(value) -> Tuple[str, str]:
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(code, str) for code in value)):
        raise TypeError(f"direction must be a [src, tgt] pair, got {value!r}")
    return tuple(value)


def _json_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _json_integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _direction_rows(args: argparse.Namespace) -> List[DirectionScore]:
    """The --direction-scores rows that --direction selects."""
    path = args.direction_scores
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read direction scores: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"direction scores file is not valid JSON: {exc}") from exc
    try:
        rows = [
            DirectionScore(
                direction=_language_pair(obj["direction"]),
                spbleu=_json_number(obj["spbleu"]),
                comet=_json_number(obj["comet"]),
                n_samples=_json_integer(obj.get("n_samples", 1)),
            )
            for obj in (raw["rows"] if isinstance(raw, dict) else raw)
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(
            f"malformed direction scores in {path}: {type(exc).__name__}: {exc}"
        ) from exc
    keep = set(_select_directions([r.direction for r in rows], args.direction))
    return [r for r in rows if r.direction in keep]


# --- subcommands -----------------------------------------------------------------

def cmd_validate(args: argparse.Namespace, cfg: RunConfig, ws: Path) -> Outcome:
    errors: List[Tuple[int, str]] = []
    count = 0
    try:
        for _line_no, _sample in _iter_with_errors(args.manifest, cfg.strict_manifests, errors):
            count += 1
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    for line_no, message in errors:
        print(f"line {line_no}: {message}")
    payload = {
        "command": "validate",
        "manifest": args.manifest,
        "n_samples": count,
        "errors": [{"line": n, "error": m} for n, m in errors],
    }
    if errors:
        print(f"{count} valid, {len(errors)} invalid")
        return 1, payload
    print(f"{count} samples OK")
    return 0, payload


_LINE_PREFIX = re.compile(r"^line \d+: ")


def _iter_with_errors(path, strict, errors):
    """Per-line iteration that records errors instead of stopping."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append((line_no, f"invalid JSON: {exc.msg}"))
                continue
            try:
                if not isinstance(obj, dict):
                    raise EvoloopError("manifest line must be a JSON object")
                yield line_no, sample_from_json(obj, line_no=line_no, strict=strict)
            except EvoloopError as exc:
                errors.append((line_no, _LINE_PREFIX.sub("", str(exc))))


def cmd_synth(args: argparse.Namespace, cfg: RunConfig, ws: Path) -> Outcome:
    samples = _load_samples(args.manifest, cfg.strict_manifests)
    with build_stack(cfg, ws, samples) as stack:
        enriched = run_acquisition(
            samples, list(cfg.voices), cfg.evolution, stack.backends.tts,
            max_in_flight=stack.max_in_flight,
        )
    out = Path(args.out) if args.out else ws / "synth.jsonl"
    save_manifest(enriched, out)
    degraded = sum(1 for s in enriched if s.degraded)
    print(f"synthesized {len(enriched)} clips ({degraded} degraded) -> {out}")
    payload = {
        "command": "synth",
        "n_input": len(samples),
        "n_synthesized": len(enriched),
        "n_degraded": degraded,
        "manifest_out": _ws_name(out, ws),
    }
    return 0, payload


def cmd_translate(args: argparse.Namespace, cfg: RunConfig, ws: Path) -> Outcome:
    samples = _load_samples(args.manifest, cfg.strict_manifests)
    mode = args.mode
    out = Path(args.out) if args.out else ws / f"hyp.{mode}.jsonl"
    with build_stack(cfg, ws, samples) as stack:
        client = stack.backends.translate

        def make_task(sample: Sample):
            audio = pick_audio(sample, cfg.evolution.speech_source)[0] if mode == "smt" else None
            return lambda: client.translate(mode, sample.text, audio, sample.direction).text

        hyps = fan_out("translation", samples, make_task,
                       max_in_flight=stack.max_in_flight, budget=0.0)
    write_jsonl(out, ({"id": s.id, "text": text} for s, text in hyps))
    print(f"translated {len(samples)} samples in {mode} mode -> {out}")
    payload = {
        "command": "translate",
        "mode": mode,
        "n": len(samples),
        "hypotheses": _ws_name(out, ws),
    }
    return 0, payload


def _scores(stack, samples: Sequence[Sample], hyps: Dict[str, str]) -> List[float]:
    """Each sample's score for its hypothesis, in input order. A command
    allows no failures: one failed sample fails it."""
    client = stack.backends.score

    def make_task(sample: Sample):
        return lambda: client.score(sample.text, hyps[sample.id], sample.reference)

    scored = fan_out("scoring", samples, make_task, max_in_flight=stack.max_in_flight, budget=0.0)
    return [value for _, value in scored]


def cmd_score(args: argparse.Namespace, cfg: RunConfig, ws: Path) -> Outcome:
    samples = _load_samples(args.manifest, cfg.strict_manifests)
    hyps = _load_hypotheses(args.hyp, samples)
    out = Path(args.out) if args.out else ws / "scores.jsonl"
    with build_stack(cfg, ws, samples) as stack:
        values = _scores(stack, samples, hyps)
    write_jsonl(out, ({"id": s.id, "score": v} for s, v in zip(samples, values)))
    mean = sum(values) / len(values) if values else 0.0
    print(f"scored {len(values)} hypotheses, mean {mean:.4f} -> {out}")
    payload = {
        "command": "score",
        "n": len(values),
        "mean_score": mean,
        "scores": _ws_name(out, ws),
    }
    return 0, payload


def cmd_classify(args: argparse.Namespace, cfg: RunConfig, ws: Path) -> Outcome:
    samples = _load_samples(args.manifest, cfg.strict_manifests)
    with build_stack(cfg, ws, samples) as stack:
        scored = run_refinement(
            samples, cfg.evolution, stack.backends.translate, stack.backends.score,
            max_in_flight=stack.max_in_flight,
        )
    out_dir = Path(args.out) if args.out else ws / "classify"
    result = partition_and_emit(scored, args.round_index, str(out_dir), workspace=str(ws))
    print(f"positives={result.n_positive} negatives={result.n_negative}")
    if result.warning:
        print(f"warning: {result.warning}")
    payload = {
        "command": "classify",
        "n_positive": result.n_positive,
        "n_negative": result.n_negative,
        "positives": os.path.relpath(result.positives_path, ws),
        "negatives": os.path.relpath(result.negatives_path, ws),
        "jobspec": os.path.relpath(result.jobspec_path, ws),
        "warning": result.warning,
    }
    return 0, payload


def _evaluate_rows(args, cfg: RunConfig, ws: Path) -> List[DirectionScore]:
    """Rows for the directions --direction selects; only those are scored."""
    if args.direction_scores:
        return _direction_rows(args)
    if not args.manifest:
        raise UsageError("evaluate needs a manifest or --direction-scores")
    samples = _load_samples(args.manifest, cfg.strict_manifests)
    if not args.hyp:
        raise MissingHypotheses("evaluate needs --hyp (or --direction-scores)")
    hyps = _load_hypotheses(args.hyp, samples)
    if not cfg.piece_table_path:
        raise UsageError("metrics.piece_table_path is required for spBLEU")
    table = load_piece_table(cfg.piece_table_path)
    groups = split_directions(samples)
    directions = _select_directions(list(groups), args.direction)
    selected = [s for direction in directions for s in groups[direction]]
    with build_stack(cfg, ws, samples) as stack:
        values = _scores(stack, selected, hyps)
    rows = []
    start = 0
    for direction in directions:
        group = groups[direction]
        comets = values[start:start + len(group)]
        start += len(group)
        hyp_texts = [hyps[s.id] for s in group]
        refs = [s.reference for s in group]
        spbleu = corpus_spbleu(hyp_texts, refs, table, smoothing=cfg.smoothing)
        rows.append(
            DirectionScore(
                direction=direction,
                spbleu=spbleu.score,
                comet=sum(comets) / len(group) * 100.0,
                n_samples=len(group),
            )
        )
    return rows


def _select_directions(
    directions: List[Tuple[str, str]], spec: Optional[str]
) -> List[Tuple[str, str]]:
    """The directions a comma-separated src-tgt spec keeps, in input order."""
    if not spec:
        return directions
    wanted = {tuple(item.split("-", 1)) for item in spec.split(",") if item}
    selected = [d for d in directions if d in wanted]
    if not selected:
        raise UsageError(f"no rows match --direction {spec}")
    return selected


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig, ws: Path) -> Outcome:
    rows = _evaluate_rows(args, cfg, ws)
    payload = _direction_report("evaluate", rows)
    if args.by_resource:
        print()
        payload["by_resource"] = _resource_report(rows)
    return 0, payload


def cmd_loop(args: argparse.Namespace, cfg: RunConfig, ws: Path) -> Outcome:
    train = _load_samples(args.train, cfg.strict_manifests)
    eval_samples = _load_samples(args.eval, cfg.strict_manifests)
    if not cfg.evolution.fixed_eval_voice:
        cfg = replace(
            cfg, evolution=replace(cfg.evolution, fixed_eval_voice=cfg.voices[0])
        )
    with build_stack(cfg, ws, list(train) + list(eval_samples)) as stack:
        history = run_loop(
            train,
            eval_samples,
            list(cfg.voices),
            cfg.evolution,
            stack.backends,
            str(ws),
            update_hook=cfg.update_hook,
            version=stack.version,
            max_in_flight=stack.max_in_flight,
        )
    for state in history:
        print(
            f"round {state.round_index}: "
            f"positives={state.n_positive} negatives={state.n_negative} "
            f"eval={fmt1(state.eval_score * 100)} "
            f"delta={fmt1(state.delta_vs_best * 100, signed=True)} "
            f"{state.status.value}"
        )
    return 0, {"command": "loop", "rounds": [state.to_json() for state in history]}


# what `report rounds` reads from each round's state.json
_ROUND_KEYS = ("round_index", "eval_score", "delta_vs_best", "status")


def _read_round_states(ws: Path) -> Tuple[Optional[float], List[dict]]:
    rounds_dir = ws / "rounds"
    states = []
    if rounds_dir.is_dir():
        for sub in sorted(rounds_dir.iterdir(), key=lambda p: int(p.name) if p.name.isdigit() else 1 << 30):
            state_path = sub / "state.json"
            if state_path.is_file():
                with open(state_path, encoding="utf-8") as fh:
                    state = json.load(fh)
                if not isinstance(state, dict):
                    raise ResumeStateCorrupt(f"{state_path}: round state is not a JSON object")
                missing = [key for key in _ROUND_KEYS if key not in state]
                if missing:
                    raise ResumeStateCorrupt(f"{state_path}: round state lacks {missing[0]!r}")
                states.append(state)
    if not states:
        raise NoRounds(f"no completed rounds under {rounds_dir}")
    # a ledger that is missing, unreadable or not an object has no baseline row
    ledger = None
    try:
        with open(ws / "journal.json", encoding="utf-8") as fh:
            ledger = json.load(fh)
    except (OSError, json.JSONDecodeError):
        pass
    return (ledger.get("baseline") if isinstance(ledger, dict) else None), states


def cmd_report_rounds(args: argparse.Namespace, cfg: RunConfig, ws: Path) -> Outcome:
    baseline, states = _read_round_states(ws)

    directions: List[str] = sorted(
        {d for s in states for d in s.get("eval_by_direction", {})}
    )
    multi = len(directions) > 1
    header = ["round", "eval", "delta", "status"]
    if multi:
        header += directions
    table_rows: List[List[str]] = []
    if baseline is not None:
        row = ["base", fmt1(baseline * 100), "", ""]
        if multi:
            row += ["" for _ in directions]
        table_rows.append(row)
    for s in states:
        row = [
            str(s["round_index"]),
            fmt1(s["eval_score"] * 100),
            fmt1(s["delta_vs_best"] * 100, signed=True),
            s["status"],
        ]
        if multi:
            by_dir = s.get("eval_by_direction", {})
            row += [
                fmt1(by_dir[d] * 100) if d in by_dir else "" for d in directions
            ]
        table_rows.append(row)

    widths = [max(len(h), *(len(r[i]) for r in table_rows)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in table_rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())

    if args.csv:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(table_rows)
        write_atomic(args.csv, buf.getvalue().encode("utf-8"))

    return 0, {"command": "report-rounds", "baseline": baseline, "rounds": states}


def cmd_report_resource(args: argparse.Namespace, cfg: RunConfig, ws: Path) -> Outcome:
    groups = _resource_report(_direction_rows(args))
    return 0, {"command": "report-resource", "groups": groups}


def cmd_report_directions(args: argparse.Namespace, cfg: RunConfig, ws: Path) -> Outcome:
    return 0, _direction_report("report-directions", _direction_rows(args))


# --- parser ---------------------------------------------------------------------

def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--workspace", help="workspace directory (overrides config)")
    parser.add_argument("--mock", action="store_true",
                        help="use in-process mock backends (offline)")
    parser.add_argument("--seed", type=int, help="evolution seed override")
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown manifest fields")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    parser.add_argument("--report", help="write the JSON report to this path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `evoloop` argument parser, built on the first call.

    Every later call returns the same parser, so callers parse with it
    and never add to it.
    """
    parser = argparse.ArgumentParser(
        prog="evoloop",
        description="Self-evolution pipeline for speech-guided machine translation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a JSONL manifest")
    p.add_argument("manifest")
    _add_global_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="synthesize speech for a manifest")
    p.add_argument("manifest")
    p.add_argument("--out", help="output manifest path")
    p.add_argument("--voices", help="comma-separated voice pool")
    _add_global_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("translate", help="translate a manifest")
    p.add_argument("manifest")
    p.add_argument("--mode", choices=["mt", "smt"], default="mt")
    p.add_argument("--out", help="hypotheses JSONL path")
    _add_global_flags(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("score", help="score hypotheses against references")
    p.add_argument("manifest")
    p.add_argument("--hyp", required=True, help="hypotheses JSONL")
    p.add_argument("--out", help="scores JSONL path")
    _add_global_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("classify", help="label samples and emit the training spec")
    p.add_argument("manifest", help="manifest with synthesized audio")
    p.add_argument("--out", help="output directory")
    p.add_argument("--round-index", type=int, default=1)
    p.add_argument("--speech-source", choices=["PreferSynthetic", "PreferAuthentic"])
    _add_global_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="per-direction score table")
    p.add_argument("manifest", nargs="?", help="manifest with references")
    p.add_argument("--hyp", help="hypotheses JSONL from a translate run")
    p.add_argument("--direction-scores", help="precomputed per-direction rows (JSON)")
    p.add_argument("--direction", help="comma-separated src-tgt filter")
    p.add_argument("--by-resource", action="store_true",
                   help="also aggregate by resource level")
    p.add_argument("--piece-table", help="piece table TSV for spBLEU")
    _add_global_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("loop", help="run self-evolution rounds")
    p.add_argument("--train", required=True, help="training manifest")
    p.add_argument("--eval", required=True, help="evaluation manifest")
    p.add_argument("--voices", help="comma-separated voice pool")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--eval-voice", help="fixed evaluation voice")
    p.add_argument("--speech-source", choices=["PreferSynthetic", "PreferAuthentic"])
    p.add_argument("--update-hook", help="command template with {jobspec}")
    p.add_argument("--mock-schedule",
                   help="comma-separated eval scores per model version (mock mode)")
    _add_global_flags(p)
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("report", help="render reports from artifacts")
    rsub = p.add_subparsers(dest="report_kind", required=True)

    r = rsub.add_parser("rounds", help="per-round gains from journals")
    r.add_argument("--csv", help="also write the table as CSV")
    _add_global_flags(r)
    r.set_defaults(func=cmd_report_rounds)

    r = rsub.add_parser("resource", help="resource-level aggregation")
    r.add_argument("--direction-scores", required=True)
    r.add_argument("--direction", help="comma-separated src-tgt filter")
    _add_global_flags(r)
    r.set_defaults(func=cmd_report_resource)

    r = rsub.add_parser("directions", help="per-direction table")
    r.add_argument("--direction-scores", required=True)
    r.add_argument("--direction", help="comma-separated src-tgt filter")
    _add_global_flags(r)
    r.set_defaults(func=cmd_report_directions)

    return parser


# commands that write nothing into the workspace, so they never create it
_READ_ONLY = frozenset({cmd_validate, cmd_report_rounds, cmd_report_resource,
                        cmd_report_directions})


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "verbose", False):
        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    try:
        cfg = load_run_config(args)
        ws = Path(cfg.workspace) if args.func in _READ_ONLY else _workspace(cfg)
        code, payload = args.func(args, cfg, ws)
        # Only evaluate has a default report path; it always writes one.
        report = args.report
        if args.func is cmd_evaluate and not report:
            report = ws / "reports" / "evaluate.json"
        if report:
            write_json(Path(report), payload)
        return code
    except (EvoloopError, ValueError) as exc:  # before OSError: some errors are both
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
