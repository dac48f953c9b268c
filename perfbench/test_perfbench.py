"""The benchmark's own tests: every workload at a tiny size, and planted faults.

    python3 -m pytest -q perfbench

Each workload runs one cold/replay/warm cycle untraced and one traced on
inputs a few rows long, must pass its output checks and must leave no
workspace behind once closed. Then a wrong answer or a crash is planted in the
program (in this process only) and the same cycle must report failed
operations and incorrect output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "loop-http": dict(n_train=4, n_eval=2),
    "evaluate-flores": dict(lines=12),
}


@pytest.fixture
def make(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WORK_DIR", str(tmp_path))
    opened = []

    def make(name, seed=3):
        workload = workloads.WORKLOADS[name](ROOT, seed, **TINY[name])
        workload.replays = 2
        workload.prepare()
        workload.open()
        opened.append(workload)
        return workload

    yield make
    for workload in opened:
        workload.close()


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_passes_its_checks(make, name):
    workload = make(name)
    assert workload.setup() > 0
    cycle = workload.cycle(0)
    assert cycle.wrong == [] and cycle.failed == 0
    assert cycle.attempted == 2 + workload.replays
    assert cycle.requests == workload.expected_requests > 0
    assert cycle.cold_ok and cycle.files > 0 and cycle.dirs > 0 and cycle.bytes > 0
    assert cycle.cold_s > 0 and cycle.warm_s > 0 and cycle.replay_s > 0
    assert sorted(workload.work.iterdir()) == [workload.work / "c0", workload.inputs]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workload.cycle(1, tracer)
    finally:
        tracer.uninstall()
    assert traced.wrong == [] and traced.failed == 0
    layers = tracing.layer_metrics(tracer.spans, tracer.retries)
    assert set(layers) | {"service.requests", "service.busy_s", "service.peak_in_flight",
                          "host.ref_s", "trace.overhead_s"} == set(tracing.PER_LAYER)
    assert layers["clients.calls"] > 0 and layers["cache.gets"] == layers["clients.calls"]
    if name == "evaluate-flores":
        assert layers["metrics.segments"] == 2 * layers["metrics.ngram_calls"] > 0
    else:
        assert layers["batch.tasks"] > 0 and layers["journal.records"] > 0
        assert all(item for _, parent, span, item, *_ in tracer.spans
                   if span == "cache.put")
    workload.close()
    assert not workload.work.exists(), "workspaces left behind after the run"


def plant(monkeypatch, owner, attr, change):
    original = getattr(owner, attr)

    def wrong(*args, **kwargs):
        return change(original(*args, **kwargs))

    monkeypatch.setattr(owner, attr, wrong)


def fault_client_score(monkeypatch):
    from evoloop.backends.clients import ScoreClient
    plant(monkeypatch, ScoreClient, "score", lambda value: value * 0.99)


def fault_ngram_counts(monkeypatch):
    from evoloop.metrics import bleu
    plant(monkeypatch, bleu, "ngram_stats",
          lambda stats: ([c + 1 for c in stats[0]], [t + 1 for t in stats[1]]))


def fault_score_raises(monkeypatch):
    from evoloop.backends.clients import ScoreClient

    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(ScoreClient, "score", broken)


def fault_cache_misses(monkeypatch):
    from evoloop.backends.cache import ContentCache
    plant(monkeypatch, ContentCache, "get", lambda response: None)


@pytest.mark.parametrize("name, fault", [
    ("loop-http", fault_client_score),
    ("loop-http", fault_cache_misses),
    ("evaluate-flores", fault_ngram_counts),
    ("evaluate-flores", fault_cache_misses),
])
def test_planted_wrong_answer_fails(make, monkeypatch, name, fault):
    workload = make(name)
    fault(monkeypatch)
    cycle = workload.cycle(0)
    assert cycle.wrong, "a planted fault passed every check"
    assert 0 < cycle.failed <= cycle.attempted


def test_crash_is_incorrect_and_not_timed(make, monkeypatch):
    workload = make("loop-http")
    fault_score_raises(monkeypatch)
    cycle = workload.cycle(0)
    assert cycle.wrong and cycle.failed == cycle.attempted
    assert not cycle.cold_ok


def test_checks_follow_their_definitions():
    assert checks.token_f1("a b c", "a b c") == 1.0
    assert checks.close(checks.token_f1("a b", "a b c"), 0.8)
    assert checks.spbleu(["x y z w v"], ["x y z w v"]) == 100.0
    assert checks.round_statuses(0.5, [0.6, 0.6, 0.6], 0.01, 2, 4) == [
        "Improved", "Plateau", "Converged"]
    assert checks.round_statuses(0.5, [0.6, 0.7], 0.01, 1, 2) == ["Improved", "MaxRounds"]
    assert checks.loop_requests(10, 5, 2) == 15 + 10 + 2 * (40 + 10)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in tracing.PER_LAYER}


def test_refuses_to_run_on_a_full_disk(monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_FREE_BYTES", 2**62)
    argv = ["--workload", "loop-http", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 2
    assert "{" not in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "loop-http", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout
