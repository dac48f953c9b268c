"""Corpus model and manifest I/O."""

import hashlib
import json
import random
import re

import pytest

from evoloop import corpus
from evoloop.corpus import (
    AudioRef,
    Label,
    ResourceLevel,
    Sample,
    SpeechUsed,
    Verdict,
    hash_sample,
    load_manifest,
    resource_level,
    save_manifest,
    split_directions,
)
from evoloop.errors import (
    EmptyField,
    IdMismatch,
    MalformedLine,
    UnknownField,
    UnknownLanguage,
)

KHMER_REF = "ជំរាបសួរ ពិភពលោក។"


class TestTaxonomy:
    def test_total_language_count(self):
        assert len(corpus.SUPPORTED_LANGUAGES) == 28

    def test_level_counts(self):
        levels = [resource_level(c) for c in corpus.SUPPORTED_LANGUAGES]
        assert levels.count(ResourceLevel.LOW) == 3
        assert levels.count(ResourceLevel.MED) == 7
        assert levels.count(ResourceLevel.HIGH) == 18

    def test_low_resource_members(self):
        low = {c for c in corpus.SUPPORTED_LANGUAGES if resource_level(c) is ResourceLevel.LOW}
        assert low == {"khm", "lao", "mya"}

    def test_med_resource_members(self):
        med = {c for c in corpus.SUPPORTED_LANGUAGES if resource_level(c) is ResourceLevel.MED}
        assert med == {"ben", "heb", "ind", "msa", "tgl", "tha", "urd"}

    def test_spot_checks(self):
        assert resource_level("eng") is ResourceLevel.HIGH
        assert resource_level("vie") is ResourceLevel.HIGH
        assert resource_level("tha") is ResourceLevel.MED
        assert resource_level("khm") is ResourceLevel.LOW

    def test_unknown_code_raises(self):
        with pytest.raises(UnknownLanguage):
            resource_level("xxx")
        with pytest.raises(UnknownLanguage):
            resource_level("EN")
        with pytest.raises(UnknownLanguage):
            resource_level("")


class TestHashSample:
    def test_matches_hand_built_canonical_form(self):
        # Oracle: the canonical serialization of fields without any character
        # needing JSON escaping is just the bracketed, comma-joined, quoted
        # array. Build it by string concatenation, independent of json.dumps.
        manual = '["eng","khm","Hello world.","' + KHMER_REF + '"]'
        expected = hashlib.sha256(manual.encode("utf-8")).hexdigest()
        got = hash_sample("Hello world.", KHMER_REF, "eng", "khm")
        assert got == expected

    def test_shape_and_stability(self):
        a = hash_sample("Hello world.", KHMER_REF, "eng", "khm")
        b = hash_sample("Hello world.", KHMER_REF, "eng", "khm")
        assert a == b
        assert len(a) == 64
        assert a == a.lower()
        assert all(ch in "0123456789abcdef" for ch in a)

    def test_any_field_change_changes_hash(self):
        base = hash_sample("text", "ref", "eng", "deu")
        assert hash_sample("text!", "ref", "eng", "deu") != base
        assert hash_sample("text", "ref!", "eng", "deu") != base
        assert hash_sample("text", "ref", "fra", "deu") != base
        assert hash_sample("text", "ref", "eng", "fra") != base

    def test_field_boundaries_are_unambiguous(self):
        # Moving a character across the text/reference boundary must not
        # produce the same canonical form.
        assert hash_sample("ab", "c", "eng", "deu") != hash_sample("a", "bc", "eng", "deu")

    def test_pinned_id_with_escapes_and_non_ascii(self):
        got = hash_sample('Größe "x" 5%', "ជំរាបសួរ", "eng", "khm")
        assert got == "9d34dea5943dfbf3465d0b87c9b7c68c5196f10dd31bd16fbc617cff1b4ae58e"

    def test_random_inputs_match_json_recompute(self):
        rng = random.Random(20240817)
        alphabet = 'abc "\\é中\U0001d11e\n\t'
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            expected = hashlib.sha256(
                json.dumps(["lao", "eng", text, ref], ensure_ascii=False,
                           separators=(",", ":")).encode("utf-8")
            ).hexdigest()
            assert hash_sample(text, ref, "lao", "eng") == expected


class TestSample:
    def test_build_derives_id(self):
        s = Sample.build("eng", "khm", "Hello world.", KHMER_REF)
        assert s.id == hash_sample("Hello world.", KHMER_REF, "eng", "khm")

    def test_synthetic_audio_requires_voice(self, tmp_path):
        p = tmp_path / "m.jsonl"
        audio = {"uri": "x.wav", "duration_s": 1.0, "sample_rate_hz": 16000}
        _write_lines(p, [_line(synthetic_audio=audio)])
        message = "line 1: malformed JSON: bad audio object: synthetic audio requires a voice_id"
        with pytest.raises(MalformedLine, match=re.escape(message)):
            load_manifest(p)
        _write_lines(p, [_line(synthetic_audio={**audio, "voice_id": "v01"})])
        assert load_manifest(p)[0].synthetic_audio.voice_id == "v01"

    def test_audio_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            AudioRef("a.wav", -0.5, 16000)
        with pytest.raises(ValueError):
            AudioRef("a.wav", 1.0, 0)


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _line(**overrides):
    obj = {
        "src_lang": "eng",
        "tgt_lang": "deu",
        "text": "Good morning.",
        "reference": "Guten Morgen.",
    }
    obj.update(overrides)
    return json.dumps(obj, ensure_ascii=False)


class TestLoadManifest:
    def test_loads_in_file_order(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(text=f"sentence {i}.") for i in range(5)])
        samples = load_manifest(p)
        assert [s.text for s in samples] == [f"sentence {i}." for i in range(5)]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(), "", "   ", _line(text="Two.")])
        assert len(load_manifest(p)) == 2

    def test_empty_file_is_empty_list(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("", encoding="utf-8")
        assert load_manifest(p) == []

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(), "{not json", _line()])
        with pytest.raises(MalformedLine) as exc:
            load_manifest(p)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_given_bytes_split_lines_as_text_mode_open(self, tmp_path, newline):
        # line numbers count \n and \r\n endings as a text-mode open() does;
        # U+2028 inside a string value is not a line break
        data = newline.join([_line(text="One\u2028two."), "", "{not json"]).encode("utf-8")
        p = tmp_path / "m.jsonl"
        p.write_bytes(data)
        with open(p, encoding="utf-8") as fh:
            assert len(list(fh)) == 3
        with pytest.raises(MalformedLine) as exc:
            load_manifest(tmp_path / "never-opened.jsonl", data=data)
        assert exc.value.line_no == 3
        (sample,) = load_manifest(p, data=data[:data.index(b"{not")])
        assert sample.text == "One\u2028two."

    def test_bare_carriage_return_does_not_end_a_line(self, tmp_path):
        # a text-mode open() would split here and blame line 3
        data = "\r".join([_line(), "", "{not json"]).encode("utf-8")
        p = tmp_path / "m.jsonl"
        p.write_bytes(data)
        for source in ({"path": p}, {"path": tmp_path / "never-opened.jsonl", "data": data}):
            with pytest.raises(MalformedLine) as exc:
                load_manifest(**source)
            assert exc.value.line_no == 1

    def test_line_that_is_not_utf8_reports_its_number(self, tmp_path):
        data = b"\n".join([_line().encode(), _line(text="caf\xe9.").encode("latin-1"),
                           b"{not json"])
        p = tmp_path / "m.jsonl"
        p.write_bytes(data)
        for source in ({"path": p}, {"path": tmp_path / "never-opened.jsonl", "data": data}):
            with pytest.raises(MalformedLine) as exc:
                load_manifest(**source)
            assert str(exc.value) == "line 2: malformed JSON: not UTF-8"

    def test_non_object_line_is_malformed(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, ['["not", "an", "object"]'])
        with pytest.raises(MalformedLine):
            load_manifest(p)

    def test_unknown_language(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(tgt_lang="elv")])
        with pytest.raises(UnknownLanguage) as exc:
            load_manifest(p)
        assert exc.value.code == "elv"

    def test_same_src_and_tgt_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(tgt_lang="eng")])
        with pytest.raises(MalformedLine):
            load_manifest(p)

    def test_empty_text_field(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(text="   ")])
        with pytest.raises(EmptyField) as exc:
            load_manifest(p)
        assert exc.value.field == "text"

    def test_missing_reference_field(self, tmp_path):
        p = tmp_path / "m.jsonl"
        obj = json.loads(_line())
        del obj["reference"]
        _write_lines(p, [json.dumps(obj)])
        with pytest.raises(EmptyField) as exc:
            load_manifest(p)
        assert exc.value.field == "reference"

    def test_stored_id_verified(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(id="0" * 64)])
        with pytest.raises(IdMismatch) as exc:
            load_manifest(p)
        assert exc.value.stored == "0" * 64
        assert exc.value.computed == hash_sample("Good morning.", "Guten Morgen.", "eng", "deu")

    def test_correct_stored_id_accepted(self, tmp_path):
        p = tmp_path / "m.jsonl"
        good = hash_sample("Good morning.", "Guten Morgen.", "eng", "deu")
        _write_lines(p, [_line(id=good)])
        assert load_manifest(p)[0].id == good

    def test_unknown_field_tolerated_by_default(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(extra_field=1)])
        assert len(load_manifest(p)) == 1

    def test_unknown_field_rejected_in_strict_mode(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(extra_field=1)])
        with pytest.raises(UnknownField) as exc:
            load_manifest(p, strict=True)
        assert exc.value.field == "extra_field"

    def test_verdict_fields_are_parsed_in_strict_mode(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(**VERDICT), _line()])
        verdict, none = (s.verdict for s in load_manifest(p, strict=True))
        assert verdict == Verdict(SpeechUsed.SYNTHETIC, 0.4, 0.6)
        assert verdict.label is Label.POSITIVE
        assert none is None
        _write_lines(p, [_line(**{**VERDICT, "speech_used": True})])
        with pytest.raises(MalformedLine, match=re.escape(
                "bad verdict: speech_used: expected a string, got True")):
            load_manifest(p, strict=True)

    def test_audio_objects_parse(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(
            synthetic_audio={"uri": "audio/x.wav", "duration_s": 2.5,
                             "sample_rate_hz": 16000, "voice_id": "v03"},
            authentic_audio={"uri": "audio/y.wav", "duration_s": 1.0,
                             "sample_rate_hz": 22050},
        )])
        (sample,) = load_manifest(p)
        assert sample.synthetic_audio.voice_id == "v03"
        assert sample.authentic_audio.voice_id == ""
        assert sample.authentic_audio.sample_rate_hz == 22050

    def test_bad_audio_object_is_malformed(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(synthetic_audio={"uri": "x.wav"})])
        with pytest.raises(MalformedLine):
            load_manifest(p)


AUDIO = {"uri": "audio/a.wav", "duration_s": 1.5, "sample_rate_hz": 16000, "voice_id": "v01"}
VERDICT = {"s1": 0.4, "s2": 0.6, "label": "Positive", "speech_used": "Synthetic"}


class TestManifestJsonTypes:
    """A manifest value of another JSON type is refused, never coerced,
    and the error names its key."""

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    @pytest.mark.parametrize("overrides, message", [
        ({"authentic_audio": {**AUDIO, "duration_s": True}},
         "bad audio object: authentic_audio: duration_s: expected a number, got True"),
        ({"authentic_audio": {**AUDIO, "duration_s": "1.5"}},
         "bad audio object: authentic_audio: duration_s: expected a number, got '1.5'"),
        ({"synthetic_audio": {**AUDIO, "sample_rate_hz": True}},
         "bad audio object: synthetic_audio: sample_rate_hz: expected an integer, got True"),
        ({"synthetic_audio": {**AUDIO, "sample_rate_hz": "16000"}},
         "bad audio object: synthetic_audio: sample_rate_hz: expected an integer, got '16000'"),
        ({"synthetic_audio": {**AUDIO, "sample_rate_hz": 2.5}},
         "bad audio object: synthetic_audio: sample_rate_hz: expected an integer, got 2.5"),
        ({"synthetic_audio": {**AUDIO, "uri": 7}},
         "bad audio object: synthetic_audio: uri: expected a string, got 7"),
        ({"synthetic_audio": {**AUDIO, "voice_id": 5}},
         "bad audio object: synthetic_audio: voice_id: expected a string, got 5"),
        ({"authentic_audio": {"duration_s": 1.5, "sample_rate_hz": 16000}},
         "bad audio object: authentic_audio: lacks 'uri'"),
        ({"authentic_audio": "audio/a.wav"},
         "bad audio object: authentic_audio: expected a JSON object, got 'audio/a.wav'"),
        ({"authentic_audio": {}}, "bad audio object: authentic_audio: lacks 'uri'"),
        ({"synthetic_audio": False},
         "bad audio object: synthetic_audio: expected a JSON object, got False"),
        ({"authentic_audio": {**AUDIO, "duration_s": float("nan")}},
         "bad audio object: authentic_audio: duration_s: expected a finite number, got nan"),
        ({"synthetic_audio": {**AUDIO, "duration_s": float("inf")}},
         "bad audio object: synthetic_audio: duration_s: expected a finite number, got inf"),
        ({"authentic_audio": {**AUDIO, "duration_s": float("-inf")}},
         "bad audio object: authentic_audio: duration_s: expected a finite number, got -inf"),
        ({"degraded": "no"}, "degraded: expected a boolean, got 'no'"),
        ({"degraded": 1}, "degraded: expected a boolean, got 1"),
        ({"degraded": None}, "degraded: expected a boolean, got None"),
        ({**VERDICT, "s1": "high"}, "bad verdict: s1: expected a number, got 'high'"),
        ({**VERDICT, "s2": float("nan")}, "bad verdict: s2: expected a finite number, got nan"),
        ({**VERDICT, "s1": True}, "bad verdict: s1: expected a number, got True"),
        ({**VERDICT, "s2": 1.5}, "bad verdict: s2 must lie in [0,1], got 1.5"),
        ({**VERDICT, "label": 5}, "bad verdict: label: expected a string, got 5"),
        ({**VERDICT, "label": "Maybe"}, "bad verdict: label: 'Maybe' is not a valid Label"),
        ({**VERDICT, "label": "Negative"},
         "bad verdict: label: Negative contradicts s1=0.4, s2=0.6"),
        ({**VERDICT, "speech_used": "Both"},
         "bad verdict: speech_used: 'Both' is not a valid SpeechUsed"),
        ({"s1": 0.4, "s2": 0.6, "speech_used": "Synthetic"}, "bad verdict: lacks 'label'"),
        ({"label": "Positive"}, "bad verdict: lacks 'speech_used'"),
        ({**VERDICT, "s1": None}, "bad verdict: s1: expected a number, got None"),
    ], ids=["duration-bool", "duration-string", "rate-bool", "rate-string", "rate-2.5",
            "uri-int", "voice-int", "uri-missing", "audio-a-string", "audio-empty",
            "audio-false", "duration-NaN",
            "duration-Infinity", "duration-minus-Infinity", "degraded-string",
            "degraded-int", "degraded-null", "s1-string", "s2-NaN", "s1-bool",
            "s2-above-1", "label-int", "label-unknown", "label-contradicts",
            "speech-used-unknown", "label-missing", "verdict-partial", "s1-null"])
    def test_mistyped_value_is_refused_by_key(self, tmp_path, strict, overrides, message):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(), _line(text="Two.", **overrides)])
        with pytest.raises(MalformedLine) as err:
            load_manifest(p, strict=strict)
        assert str(err.value) == f"line 2: malformed JSON: {message}"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_tokens_are_refused(self, tmp_path, token):
        # json.loads reads these tokens, though JSON has no such numbers
        p = tmp_path / "m.jsonl"
        line = _line(authentic_audio=AUDIO).replace('"duration_s": 1.5', f'"duration_s": {token}')
        assert token in line
        _write_lines(p, [line])
        with pytest.raises(MalformedLine, match="authentic_audio: duration_s: expected a finite"):
            load_manifest(p)

    def test_row_of_mistyped_values_is_refused_before_it_is_saved(self, tmp_path):
        p = tmp_path / "m.jsonl"
        audio = {"uri": 7, "duration_s": True, "sample_rate_hz": "16000", "voice_id": 5}
        _write_lines(p, [_line(), _line(synthetic_audio=audio, degraded="no")])
        for strict in (False, True):
            with pytest.raises(MalformedLine, match=re.escape(
                    "line 2: malformed JSON: bad audio object: synthetic_audio: uri: "
                    "expected a string, got 7")):
                load_manifest(p, strict=strict)
        _write_lines(p, [_line(), _line(degraded="no")])
        with pytest.raises(MalformedLine, match="line 2: .*degraded: expected a boolean"):
            load_manifest(p, strict=True)

    def test_well_typed_values_load_as_written(self, tmp_path):
        p = tmp_path / "m.jsonl"
        _write_lines(p, [_line(synthetic_audio={**AUDIO, "duration_s": 2}, degraded=True,
                               authentic_audio=None)])
        sample = load_manifest(p, strict=True)[0]
        assert sample.synthetic_audio == AudioRef("audio/a.wav", 2.0, 16000, "v01")
        assert type(sample.synthetic_audio.duration_s) is float
        assert sample.authentic_audio is None  # null stands for no clip
        assert sample.degraded is True


class TestRoundTrip:
    def test_save_then_load_preserves_everything(self, tmp_path):
        rng = random.Random(7)
        samples = []
        langs = ["eng", "khm", "deu", "cmn", "lao"]
        for i in range(30):
            src, tgt = rng.sample(langs, 2)
            s = Sample.build(src, tgt, f"source text {i} 中文", f"ref {i}")
            if i % 3 == 0:
                s = s.with_synthetic_audio(
                    AudioRef(f"audio/{i}.wav", 1.5 + i, 16000, voice_id=f"v{i:02d}"),
                    degraded=(i % 6 == 0),
                )
            samples.append(s)
        path = tmp_path / "round.jsonl"
        save_manifest(samples, path)
        reloaded = load_manifest(path, strict=True)
        assert reloaded == samples
        assert [s.degraded for s in reloaded] == [s.degraded for s in samples]
        assert [s.synthetic_audio for s in reloaded] == [s.synthetic_audio for s in samples]

    def test_serialization_is_stable(self, tmp_path):
        s = Sample.build("eng", "fra", "One.", "Un.")
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_manifest([s], p1)
        save_manifest(load_manifest(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_verdict_round_trip(self, tmp_path):
        s = Sample.build("eng", "fra", "One.", "Un.",
                         verdict=Verdict(SpeechUsed.AUTHENTIC, 0.75, 0.25))
        path = tmp_path / "verdict.jsonl"
        save_manifest([s], path)
        row = json.loads(path.read_text(encoding="utf-8"))
        assert {k: row[k] for k in ("s1", "s2", "label", "speech_used")} == {
            "s1": 0.75, "s2": 0.25, "label": "Negative", "speech_used": "Authentic"}
        assert load_manifest(path, strict=True)[0].verdict == s.verdict
        save_manifest(load_manifest(path, strict=True), tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_failed_write_keeps_previous_file(self, tmp_path):
        good = [Sample.build("eng", "fra", f"One {i}.", f"Un {i}.") for i in range(3)]
        path = tmp_path / "m.jsonl"
        save_manifest(good, path)
        before = path.read_bytes()
        # json cannot encode bytes: the third row raises after two encode fine
        bad = Sample(**{**good[0].__dict__, "reference": b"Un 0."})
        with pytest.raises(TypeError):
            save_manifest(good[:2] + [bad], path)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_written_file_gets_the_mode_open_gives(self, tmp_path):
        path = tmp_path / "m.jsonl"
        save_manifest([Sample.build("eng", "fra", "One.", "Un.")], path)
        plain = tmp_path / "plain"
        plain.write_text("")
        assert path.stat().st_mode == plain.stat().st_mode


class TestSplitDirections:
    def test_groups_cover_input_exactly(self):
        rng = random.Random(3)
        langs = ["eng", "deu", "khm", "tha"]
        samples = []
        for i in range(60):
            src, tgt = rng.sample(langs, 2)
            samples.append(Sample.build(src, tgt, f"text {i}", f"ref {i}"))
        groups = split_directions(samples)
        regrouped = [s for group in groups.values() for s in group]
        assert sorted(s.id for s in regrouped) == sorted(s.id for s in samples)
        for (src, tgt), members in groups.items():
            assert all(s.src_lang == src and s.tgt_lang == tgt for s in members)

    def test_within_group_order_preserved(self):
        samples = [
            Sample.build("eng", "deu", "a", "r1"),
            Sample.build("eng", "khm", "b", "r2"),
            Sample.build("eng", "deu", "c", "r3"),
        ]
        groups = split_directions(samples)
        assert [s.text for s in groups[("eng", "deu")]] == ["a", "c"]
        assert list(groups) == [("eng", "deu"), ("eng", "khm")]
