"""Training-plan construction and job spec serialization."""

import json
import random
from pathlib import Path

import pytest

from evoloop.curriculum import (
    ADAPTER_META,
    DEFAULT_OPTIMIZER,
    JobSpec,
    OptimizerConfig,
    Stage,
    Trainable,
    continual_spec,
    plan_stages,
    trainable_for,
)
from evoloop.errors import MissingBinding, MissingManifest

JOBSPEC_DOCS = Path(__file__).resolve().parents[1] / "docs" / "jobspecs"

BINDINGS = {
    Stage.ASR: ["data/asr.jsonl"],
    Stage.S2TT: ["data/s2tt.jsonl"],
    Stage.SMT: ["data/smt.jsonl"],
}


# --- plan_stages ------------------------------------------------------------

class TestPlanStages:
    def test_order_is_asr_s2tt_smt(self):
        plan = plan_stages(BINDINGS)
        assert [spec.stage for spec in plan] == [Stage.ASR, Stage.S2TT, Stage.SMT]

    def test_trainable_sets_per_stage(self):
        plan = plan_stages(BINDINGS)
        assert plan[0].trainable == {Trainable.SPEECH_ADAPTER}
        assert plan[1].trainable == {Trainable.SPEECH_ADAPTER}
        assert plan[2].trainable == {Trainable.SPEECH_ADAPTER, Trainable.LLM_ADAPTER}

    def test_adapter_meta_constants(self):
        for spec in plan_stages(BINDINGS):
            assert dict(spec.adapter_meta) == {
                "queries": 80,
                "query_dim": 768,
                "lora_rank": 16,
                "lora_alpha": 32,
            }

    def test_optimizer_defaults(self):
        for spec in plan_stages(BINDINGS):
            opt = spec.optimizer
            assert opt.family == "adamw-style"
            assert opt.peak_lr == pytest.approx(1e-4)
            assert opt.warmup_steps == 1000
            assert opt.decay == "Linear"

    def test_datasets_bound_per_stage(self):
        plan = plan_stages(BINDINGS)
        assert plan[0].datasets == ("data/asr.jsonl",)
        assert plan[2].datasets == ("data/smt.jsonl",)

    @pytest.mark.parametrize("missing", [Stage.ASR, Stage.S2TT, Stage.SMT])
    def test_missing_binding(self, missing):
        bindings = {k: v for k, v in BINDINGS.items() if k is not missing}
        with pytest.raises(MissingBinding) as err:
            plan_stages(bindings)
        assert err.value.stage == missing.value

    def test_empty_binding_counts_as_missing(self):
        bindings = dict(BINDINGS)
        bindings[Stage.S2TT] = []
        with pytest.raises(MissingBinding):
            plan_stages(bindings)

    def test_string_keys_and_scalar_paths(self):
        plan = plan_stages({"ASR": "a.jsonl", "S2TT": "b.jsonl", "SMT": "c.jsonl"})
        assert plan[1].datasets == ("b.jsonl",)

    def test_optimizer_override_applies_everywhere(self):
        opt = OptimizerConfig(peak_lr=5e-5, warmup_steps=200)
        plan = plan_stages(BINDINGS, optimizer=opt)
        assert all(spec.optimizer == opt for spec in plan)

    def test_continual_stage_is_not_a_binding(self):
        bindings = dict(BINDINGS)
        bindings[Stage.CONTINUAL_SMT] = ["x.jsonl"]
        with pytest.raises(ValueError):
            plan_stages(bindings)


# --- continual_spec ---------------------------------------------------------

class TestContinualSpec:
    def test_basic_shape(self, tmp_path):
        manifest = tmp_path / "positives.jsonl"
        manifest.write_text("", encoding="utf-8")
        spec = continual_spec(str(manifest), round_index=2)
        assert spec.stage is Stage.CONTINUAL_SMT
        assert spec.datasets == (str(manifest),)
        assert spec.trainable == {Trainable.SPEECH_ADAPTER, Trainable.LLM_ADAPTER}
        assert spec.optimizer == DEFAULT_OPTIMIZER

    def test_relative_path_with_root(self, tmp_path):
        (tmp_path / "rounds" / "2").mkdir(parents=True)
        (tmp_path / "rounds" / "2" / "positives.jsonl").write_text("", encoding="utf-8")
        spec = continual_spec("rounds/2/positives.jsonl", 2, root=str(tmp_path))
        # path stays verbatim, not resolved
        assert spec.datasets == ("rounds/2/positives.jsonl",)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingManifest):
            continual_spec(str(tmp_path / "nope.jsonl"), 1)

    def test_bad_round_index(self, tmp_path):
        manifest = tmp_path / "p.jsonl"
        manifest.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            continual_spec(str(manifest), 0)


# --- JobSpec invariants -----------------------------------------------------

class TestJobSpecInvariants:
    def test_speech_adapter_always_required(self):
        with pytest.raises(ValueError):
            JobSpec(stage=Stage.SMT, trainable=frozenset({Trainable.LLM_ADAPTER}), datasets=("d",))

    def test_llm_adapter_forbidden_before_smt(self):
        for stage in (Stage.ASR, Stage.S2TT):
            with pytest.raises(ValueError):
                JobSpec(
                    stage=stage,
                    trainable=frozenset({Trainable.SPEECH_ADAPTER, Trainable.LLM_ADAPTER}),
                    datasets=("d",),
                )

    def test_llm_adapter_required_at_smt_stages(self):
        for stage in (Stage.SMT, Stage.CONTINUAL_SMT):
            with pytest.raises(ValueError):
                JobSpec(stage=stage, trainable=frozenset({Trainable.SPEECH_ADAPTER}), datasets=("d",))

    def test_datasets_required(self):
        with pytest.raises(ValueError):
            JobSpec.build(Stage.ASR, [])

    def test_adapter_meta_is_fixed(self):
        with pytest.raises(ValueError):
            JobSpec(
                stage=Stage.ASR,
                trainable=frozenset({Trainable.SPEECH_ADAPTER}),
                datasets=("d",),
                adapter_meta={"queries": 81, "query_dim": 768, "lora_rank": 16, "lora_alpha": 32},
            )

    def test_trainable_rule_over_random_configs(self):
        rng = random.Random(7)
        stages = list(Stage)
        for _ in range(100):
            stage = rng.choice(stages)
            n = rng.randint(1, 4)
            datasets = [f"m{rng.randint(0, 999)}.jsonl" for _ in range(n)]
            spec = JobSpec.build(stage, datasets)
            assert Trainable.SPEECH_ADAPTER in spec.trainable
            wants_llm = stage in (Stage.SMT, Stage.CONTINUAL_SMT)
            assert (Trainable.LLM_ADAPTER in spec.trainable) == wants_llm
            assert spec.trainable == trainable_for(stage)


# --- optimizer validation ---------------------------------------------------

class TestOptimizerConfig:
    def test_defaults(self):
        opt = OptimizerConfig()
        assert (opt.family, opt.peak_lr, opt.warmup_steps, opt.decay) == (
            "adamw-style",
            1e-4,
            1000,
            "Linear",
        )

    @pytest.mark.parametrize("kwargs", [
        {"peak_lr": 0.0},
        {"peak_lr": -1e-4},
        {"warmup_steps": -1},
        {"decay": "Cosine"},
        {"family": ""},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


# --- serialization ----------------------------------------------------------

class TestSerialization:
    def test_round_trip_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            stage = rng.choice(list(Stage))
            datasets = [f"d{rng.randint(0, 99)}.jsonl" for _ in range(rng.randint(1, 3))]
            opt = OptimizerConfig(
                peak_lr=rng.choice([1e-4, 5e-5, 2e-4]),
                warmup_steps=rng.choice([0, 500, 1000]),
            )
            spec = JobSpec.build(stage, datasets, optimizer=opt)
            blob = json.dumps(spec.to_json(), sort_keys=True)
            back = JobSpec.from_json(json.loads(blob))
            assert back == spec
            assert hash(back) == hash(spec)
            assert json.dumps(back.to_json(), sort_keys=True) == blob

    def test_committed_examples_round_trip_byte_identical(self):
        paths = sorted(JOBSPEC_DOCS.glob("*.json"))
        assert paths
        for path in paths:
            text = path.read_text(encoding="utf-8")
            spec = JobSpec.from_json(json.loads(text))
            again = json.dumps(spec.to_json(), ensure_ascii=False, sort_keys=True, indent=2)
            assert again + "\n" == text, path.name

    def test_from_json_rejects_wrong_adapter_meta(self):
        obj = json.loads((JOBSPEC_DOCS / "asr.json").read_text(encoding="utf-8"))
        obj["adapter_meta"]["queries"] = 81
        with pytest.raises(ValueError):
            JobSpec.from_json(obj)

    def test_json_shape(self, tmp_path):
        manifest = tmp_path / "positives.jsonl"
        manifest.write_text("", encoding="utf-8")
        obj = continual_spec(str(manifest), 3).to_json()
        assert obj["stage"] == "ContinualSMT"
        assert obj["trainable"] == ["LlmAdapter", "SpeechAdapter"]
        assert obj["datasets"] == [str(manifest)]
        assert obj["optimizer"] == {
            "family": "adamw-style",
            "peak_lr": 1e-4,
            "warmup_steps": 1000,
            "decay": "Linear",
        }
        assert obj["adapter_meta"] == dict(ADAPTER_META)

    def test_trainable_is_sorted_in_json(self):
        spec = JobSpec.build(Stage.SMT, ["d.jsonl"])
        assert spec.to_json()["trainable"] == sorted(spec.to_json()["trainable"])
