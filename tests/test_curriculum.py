"""Training-plan construction and job spec serialization."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from evoloop.curriculum import (
    ADAPTER_META,
    OPTIMIZER,
    JobSpec,
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
            assert spec.to_json()["optimizer"] == dict(OPTIMIZER)

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
        spec = continual_spec(str(manifest))
        assert spec.stage is Stage.CONTINUAL_SMT
        assert spec.datasets == (str(manifest),)
        assert spec.trainable == {Trainable.SPEECH_ADAPTER, Trainable.LLM_ADAPTER}

    def test_relative_path_with_root(self, tmp_path):
        (tmp_path / "rounds" / "2").mkdir(parents=True)
        (tmp_path / "rounds" / "2" / "positives.jsonl").write_text("", encoding="utf-8")
        spec = continual_spec("rounds/2/positives.jsonl", root=str(tmp_path))
        # path stays verbatim, not resolved
        assert spec.datasets == ("rounds/2/positives.jsonl",)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingManifest):
            continual_spec(str(tmp_path / "nope.jsonl"))


# --- JobSpec invariants -----------------------------------------------------

class TestJobSpecInvariants:
    def test_speech_adapter_always_required(self):
        for stage in Stage:
            assert Trainable.SPEECH_ADAPTER in JobSpec(stage, ["d"]).trainable

    def test_llm_adapter_forbidden_before_smt(self):
        for stage in (Stage.ASR, Stage.S2TT):
            assert Trainable.LLM_ADAPTER not in JobSpec(stage, ["d"]).trainable

    def test_llm_adapter_required_at_smt_stages(self):
        for stage in (Stage.SMT, Stage.CONTINUAL_SMT):
            assert Trainable.LLM_ADAPTER in JobSpec(stage, ["d"]).trainable

    def test_datasets_required(self):
        with pytest.raises(ValueError):
            JobSpec(Stage.ASR, [])

    def test_adapter_meta_is_fixed(self):
        spec = JobSpec(Stage.ASR, ["d"])
        assert spec.adapter_meta is ADAPTER_META
        with pytest.raises(TypeError):
            ADAPTER_META["queries"] = 81  # type: ignore[index]
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.adapter_meta = {"queries": 81}  # type: ignore[misc]
        with pytest.raises(TypeError):
            JobSpec(Stage.ASR, ["d"], adapter_meta=ADAPTER_META)  # type: ignore[call-arg]

    def test_equal_specs_hash_equal(self):
        spec = JobSpec("SMT", ["d"])
        assert spec == JobSpec(Stage.SMT, ("d",))
        assert hash(spec) == hash(JobSpec(Stage.SMT, ("d",)))
        assert spec != JobSpec(Stage.SMT, ("e",))
        assert len({spec, JobSpec(Stage.SMT, ["d"]), JobSpec(Stage.ASR, ["d"])}) == 2

    def test_trainable_rule_over_random_configs(self):
        rng = random.Random(7)
        stages = list(Stage)
        for _ in range(100):
            stage = rng.choice(stages)
            n = rng.randint(1, 4)
            datasets = [f"m{rng.randint(0, 999)}.jsonl" for _ in range(n)]
            spec = JobSpec(stage, datasets)
            assert Trainable.SPEECH_ADAPTER in spec.trainable
            wants_llm = stage in (Stage.SMT, Stage.CONTINUAL_SMT)
            assert (Trainable.LLM_ADAPTER in spec.trainable) == wants_llm
            assert spec.trainable == trainable_for(stage)


# --- optimizer constants ----------------------------------------------------

class TestOptimizer:
    def test_defaults(self):
        assert dict(OPTIMIZER) == {
            "family": "adamw-style",
            "peak_lr": 1e-4,
            "warmup_steps": 1000,
            "decay": "Linear",
        }
        with pytest.raises(TypeError):
            OPTIMIZER["peak_lr"] = 5e-5  # type: ignore[index]


# --- serialization ----------------------------------------------------------

class TestSerialization:
    def test_committed_examples_rebuild_byte_identical(self, tmp_path):
        (tmp_path / "rounds" / "1").mkdir(parents=True)
        (tmp_path / "rounds" / "1" / "positives.jsonl").write_text("", encoding="utf-8")
        specs = plan_stages({
            "ASR": "corpora/asr_transcripts.jsonl",
            "S2TT": "corpora/s2tt_pairs.jsonl",
            "SMT": ["corpora/mt_parallel.jsonl", "corpora/smt_triplets.jsonl"],
        })
        specs.append(continual_spec("rounds/1/positives.jsonl", root=str(tmp_path)))
        built = {spec.stage.value.lower() + ".json": spec for spec in specs}
        paths = sorted(JOBSPEC_DOCS.glob("*.json"))
        assert sorted(p.name for p in paths) == sorted(built)
        for path in paths:
            text = json.dumps(built[path.name].to_json(), sort_keys=True, indent=2) + "\n"
            assert path.read_text(encoding="utf-8") == text, path.name

    def test_json_shape(self, tmp_path):
        manifest = tmp_path / "positives.jsonl"
        manifest.write_text("", encoding="utf-8")
        obj = continual_spec(str(manifest)).to_json()
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
        spec = JobSpec(Stage.SMT, ["d.jsonl"])
        assert spec.to_json()["trainable"] == sorted(spec.to_json()["trainable"])
