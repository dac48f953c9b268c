"""Client facades, mocks, and the response cache."""

import hashlib
import json
import os
import random
import re
import signal
import sqlite3
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from evoloop.backends import (
    ContentCache,
    EndpointConfig,
    Hypothesis,
    ScoreClient,
    TranslateClient,
    TranslationMode,
    TtsClient,
    entry_key,
)
from evoloop.backends import cache as cache_module
from evoloop.backends.cache import canonical_payload
from evoloop.backends.mock import (
    ContrastTranslator,
    LookupTranslator,
    MockScorer,
    MockTts,
    ScheduledScorer,
    token_f1,
)
from evoloop.corpus import AudioOrigin, AudioRef
from evoloop.errors import (
    BackendUnavailable,
    DurationOverrun,
    EmptyTranslation,
    ModeAudioMismatch,
    ScoreOutOfRange,
    SynthesisRejected,
    TransientBackendError,
)

from helpers import EchoTranslator

SRC = Path(__file__).resolve().parents[1] / "src"
FORMATS_DOC = SRC.parent / "docs" / "formats.md"


def no_sleep(_s):
    pass


class FlakyWrapper:
    """Fails the first n calls per distinct payload with a transient error."""

    def __init__(self, inner, fail_first: int = 2):
        self.inner = inner
        self.fail_first = fail_first
        self._seen: dict[str, int] = {}
        self._lock = threading.Lock()

    def _maybe_fail(self, payload: dict) -> None:
        key = repr(sorted(payload.items()))
        with self._lock:
            seen = self._seen.get(key, 0)
            self._seen[key] = seen + 1
        if seen < self.fail_first:
            raise TransientBackendError(f"scripted failure {seen + 1}/{self.fail_first}")

    def __getattr__(self, name):
        inner_method = getattr(self.inner, name)

        def call(payload: dict) -> dict:
            self._maybe_fail(payload)
            return inner_method(payload)

        return call


def stored_records(root) -> list[tuple[bytes, str]]:
    """(key, response text) per record of the log, read past the cache:
    a 32-byte key, a 4-byte little-endian length, then that many bytes."""
    data = (Path(root) / "responses.log").read_bytes()
    records = []
    end = 0
    while end < len(data):
        key, length = data[end:end + 32], int.from_bytes(data[end + 32:end + 36], "little")
        end += 36 + length
        assert end <= len(data), "torn record"
        records.append((key, data[end - length:end].decode("utf-8")))
    return records


def stored_texts(root) -> dict:
    """key -> response text, read past the cache."""
    return dict(stored_records(root))


def older_hash(payload) -> str:
    """The per-payload hex digest that older cache layouts keyed entries by."""
    return hashlib.sha256(canonical_payload(payload).encode("utf-8")).hexdigest()


KILLED_WRITER = """
import os, signal, sys
from evoloop.backends.cache import ContentCache, entry_key
cache = ContentCache(sys.argv[1])
for i in range(int(sys.argv[2])):
    cache.put(entry_key("translate", "v0", {"i": i}), {"text": f"ជំរាបសួរ {i}", "n": i})
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.fixture
def cache(tmp_path):
    return ContentCache(tmp_path / "cache")


class TestContentCache:
    def test_roundtrip(self, cache):
        key = entry_key("tts", "v0", {"text": "hi", "voice_id": "v1"})
        assert len(key) == 32
        assert cache.get(key) is None
        cache.put(key, {"uri": "a.wav"})
        assert cache.get(key) == {"uri": "a.wav"}

    def test_key_order_does_not_matter(self, cache):
        assert entry_key("x", "v0", {"a": 1, "b": 2}) == entry_key("x", "v0", {"b": 2, "a": 1})
        cache.put(entry_key("x", "v0", {"a": 1, "b": 2}), {"r": 1})
        assert cache.get(entry_key("x", "v0", {"b": 2, "a": 1})) == {"r": 1}

    def test_namespaces_are_isolated(self, cache):
        payload = {"mode": "mt", "text": "t"}
        cache.put(entry_key("translate", "v0", payload), {"text": "old"})
        assert cache.get(entry_key("translate", "v1", payload)) is None
        cache.put(entry_key("translate", "v1", payload), {"text": "new"})
        assert cache.get(entry_key("translate", "v0", payload)) == {"text": "old"}
        assert cache.get(entry_key("translate", "v1", payload)) == {"text": "new"}

    def test_endpoint_and_namespace_are_in_the_key(self, cache, tmp_path):
        payload = {"text": "same"}
        cells = [("tts", "v0"), ("tts", "v1"), ("score", "v0")]
        keys = [entry_key(endpoint, ns, payload) for endpoint, ns in cells]
        assert len(set(keys)) == 3
        for i, key in enumerate(keys):
            cache.put(key, {"i": i})
        assert [cache.get(key) for key in keys] == [{"i": 0}, {"i": 1}, {"i": 2}]
        cache.close()
        assert stored_texts(tmp_path / "cache") == {
            key: canonical_payload({"i": i}) for i, key in enumerate(keys)}

    def test_no_leftover_temp_files(self, cache, tmp_path):
        for i in range(20):
            cache.put(entry_key("e", "v0", {"i": i}), {"ok": i})
        leftovers = list((tmp_path / "cache").rglob("*.tmp"))
        assert leftovers == []

    def test_store_is_one_file(self, tmp_path):
        cache = ContentCache(tmp_path / "cache")
        for endpoint in ("tts", "translate", "score"):
            for ns in ("v0", "v1"):
                for i in range(20):
                    cache.put(entry_key(endpoint, ns, {"i": i}), {"ok": [endpoint, ns, i]})
        cache.close()
        assert [p.name for p in (tmp_path / "cache").iterdir()] == ["responses.log"]
        reopened = ContentCache(tmp_path / "cache")
        for endpoint in ("tts", "translate", "score"):
            for ns in ("v0", "v1"):
                for i in range(20):
                    assert reopened.get(entry_key(endpoint, ns, {"i": i})) == {"ok": [endpoint, ns, i]}
        reopened.close()

    def test_dropped_without_close_leaves_only_the_store(self, tmp_path):
        cache = ContentCache(tmp_path / "cache")
        cache.put(entry_key("score", "v0", {"i": 1}), {"score": 0.5})
        assert cache.get(entry_key("score", "v0", {"i": 1})) == {"score": 0.5}
        del cache  # no close(), no garbage collection
        assert [p.name for p in (tmp_path / "cache").iterdir()] == ["responses.log"]

    def test_killed_writer_keeps_every_put(self, tmp_path):
        k = 25
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", KILLED_WRITER, str(tmp_path / "cache"),
                               str(k)], env=env, capture_output=True, timeout=60)
        assert done.returncode == -signal.SIGKILL, done.stderr
        cache = ContentCache(tmp_path / "cache")
        for i in range(k):
            assert cache.get(entry_key("translate", "v0", {"i": i})) == {"text": f"ជំរាបសួរ {i}", "n": i}
        cache.close()
        want = {
            entry_key("translate", "v0", {"i": i}):
                json.dumps({"n": i, "text": f"ជំរាបសួរ {i}"}, ensure_ascii=False, separators=(",", ":"))
            for i in range(k)
        }
        assert stored_texts(tmp_path / "cache") == want

    def test_concurrent_writers_and_readers(self, cache):
        def response(i):
            return {"text": "x" * (i * 37 % 500), "i": i}

        errors = []

        def worker(t):
            try:
                for i in range(200):
                    key = (i + 25 * t) % 100  # each thread writes every key twice
                    cache.put(entry_key("score", "v0", {"k": key}), response(key))
                    other = (key * 7) % 100
                    got = cache.get(entry_key("score", "v0", {"k": other}))
                    if got is not None and got != response(other):
                        errors.append(got)
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for key in range(100):
            assert cache.get(entry_key("score", "v0", {"k": key})) == response(key)

    def test_entry_in_the_file_layout_is_not_read(self, tmp_path):
        payload = {"text": "hi", "voice_id": "v1"}
        old = tmp_path / "cache" / "tts" / "v0" / f"{older_hash(payload)}.json"
        old.parent.mkdir(parents=True)
        old.write_text(json.dumps({"uri": "old.wav"}), encoding="utf-8")
        cache = ContentCache(tmp_path / "cache")
        assert cache.get(entry_key("tts", "v0", payload)) is None
        cache.close()

    def test_older_sqlite_store_is_not_read(self, tmp_path):
        backend = EchoTranslator()
        sent = []
        translate = backend.translate
        backend.translate = lambda payload: sent.append(dict(payload)) or translate(payload)
        TranslateClient(backend, ContentCache(tmp_path / "probe"),
                        sleep=no_sleep).translate("mt", "once", None, ("eng", "deu"))
        key = entry_key("translate", "v0", sent[0])
        # the store the cache kept before the log, holding this very request
        (tmp_path / "cache").mkdir()
        db = sqlite3.connect(tmp_path / "cache" / "responses.db")
        db.execute("CREATE TABLE entries (key BLOB PRIMARY KEY, response TEXT NOT NULL)"
                   " WITHOUT ROWID")
        db.execute("INSERT INTO entries VALUES (?, ?)", (key, '{"text":"old"}'))
        db.commit()
        db.close()
        before = (tmp_path / "cache" / "responses.db").read_bytes()
        cache = ContentCache(tmp_path / "cache")
        client = TranslateClient(backend, cache, sleep=no_sleep)
        assert client.translate("mt", "once", None, ("eng", "deu")).text == "once"
        cache.close()
        assert len(sent) == 2
        assert stored_texts(tmp_path / "cache") == {key: '{"text":"once"}'}
        assert (tmp_path / "cache" / "responses.db").read_bytes() == before

    @pytest.mark.parametrize("kept", [20, 36 + 5], ids=["in-header", "in-text"])
    def test_torn_last_record_is_cut_off(self, tmp_path, kept):
        def response(i):
            return {"text": f"ជំរាបសួរ {i}", "n": i}

        keys = [entry_key("translate", "v0", {"i": i}) for i in range(3)]
        cache = ContentCache(tmp_path / "cache")
        for i, key in enumerate(keys):
            cache.put(key, response(i))
        cache.close()
        log = tmp_path / "cache" / "responses.log"
        whole = log.stat().st_size - 36 - len(canonical_payload(response(2)).encode("utf-8"))
        os.truncate(log, whole + kept)  # a put killed after `kept` bytes of its record
        reopened = ContentCache(tmp_path / "cache")
        assert [reopened.get(key) for key in keys] == [response(0), response(1), None]
        assert log.stat().st_size == whole
        reopened.put(keys[2], {"text": "again"})
        reopened.close()
        fresh = ContentCache(tmp_path / "cache")
        assert [fresh.get(key) for key in keys] == [response(0), response(1), {"text": "again"}]
        fresh.close()
        assert [key for key, _ in stored_records(tmp_path / "cache")] == keys

    def test_second_cache_on_one_root_reads_the_first_ones_puts(self, tmp_path):
        keys = [entry_key("score", "v0", {"i": i}) for i in range(3)]
        first = ContentCache(tmp_path / "cache")
        first.put(keys[0], {"score": 0.0})
        first.put(keys[1], {"score": 0.5})
        # on disk when put returns, before any close()
        assert stored_texts(tmp_path / "cache") == {
            keys[0]: '{"score":0.0}', keys[1]: '{"score":0.5}'}
        second = ContentCache(tmp_path / "cache")
        assert [second.get(key) for key in keys] == [{"score": 0.0}, {"score": 0.5}, None]
        second.put(keys[2], {"score": 1.0})
        assert first.get(keys[2]) is None  # seen from the next open
        first.close()
        second.close()
        fresh = ContentCache(tmp_path / "cache")
        assert [fresh.get(key) for key in keys] == [{"score": 0.0}, {"score": 0.5}, {"score": 1.0}]
        fresh.close()

    def test_racing_puts_of_one_key_write_one_record(self, cache, tmp_path):
        key = entry_key("score", "v0", {"i": 1})
        both_missed = threading.Barrier(2, timeout=30)
        missed = []

        def worker():
            missed.append(cache.get(key) is None)
            both_missed.wait()
            cache.put(key, {"score": 0.5})

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert missed == [True, True]
        cache.close()
        assert stored_records(tmp_path / "cache") == [(key, '{"score":0.5}')]


def test_formats_doc_shows_the_cache_schema():
    doc = FORMATS_DOC.read_text(encoding="utf-8")
    assert re.findall(r"`struct` format `([^`]+)`", doc) == [cache_module._HEADER.format]


class TestMockTts:
    def test_duration_formula(self, tmp_path, cache):
        client = TtsClient(MockTts(), cache, sleep=no_sleep)
        audio = client.synthesize("hello", "v1")
        assert audio.duration_s == pytest.approx(5 / 15.0)
        assert audio.sample_rate_hz == 16000
        assert audio.origin is AudioOrigin.SYNTHETIC
        assert audio.voice_id == "v1"

    def test_target_duration_honored(self, tmp_path, cache):
        client = TtsClient(MockTts(), cache, sleep=no_sleep)
        audio = client.synthesize("hello", "v1", target_duration_s=2.25)
        assert audio.duration_s == 2.25

    def test_cache_idempotence_zero_backend_calls(self, tmp_path, cache):
        backend = MockTts()
        client = TtsClient(backend, cache, sleep=no_sleep)
        first = client.synthesize("hello there", "v2")
        calls_after_first = backend.calls.count
        second = client.synthesize("hello there", "v2")
        assert backend.calls.count == calls_after_first
        assert second == first

    def test_response_is_a_function_of_the_request(self):
        # these bytes reach every manifest and journal.json; they must not move
        backend = MockTts()
        assert backend.tts({"text": "hello there", "voice_id": "voice-a"}) == {
            "uri": "audio/3f58110dbd9f3e3b.wav",
            "duration_s": 11 / 15,
            "sample_rate_hz": 16000,
        }
        assert backend.tts({"text": "hello there", "voice_id": "voice-a",
                            "target_duration_s": 2.25}) == {
            "uri": "audio/405db7de1a7c5ca8.wav",
            "duration_s": 2.25,
            "sample_rate_hz": 16000,
        }

    def test_duration_overrun_carries_audio(self, tmp_path, cache):
        client = TtsClient(MockTts(), cache, sleep=no_sleep)
        with pytest.raises(DurationOverrun) as exc:
            client.synthesize("a long recording", "v1", target_duration_s=31.0)
        assert exc.value.audio.duration_s == 31.0
        assert exc.value.limit_s == 30.0
        assert exc.value.audio.uri.endswith(".wav")

    def test_overrun_repeat_is_cache_hit(self, tmp_path, cache):
        backend = MockTts()
        client = TtsClient(backend, cache, sleep=no_sleep)
        for _ in range(2):
            with pytest.raises(DurationOverrun):
                client.synthesize("same text", "v1", target_duration_s=31.0)
        assert backend.calls.count == 1

    def test_exactly_30s_is_allowed(self, tmp_path, cache):
        client = TtsClient(MockTts(), cache, sleep=no_sleep)
        audio = client.synthesize("text", "v1", target_duration_s=30.0)
        assert audio.duration_s == 30.0

    def test_unknown_voice_rejected(self, tmp_path, cache):
        backend = MockTts(known_voices=frozenset({"v1"}))
        client = TtsClient(backend, cache, sleep=no_sleep)
        with pytest.raises(SynthesisRejected):
            client.synthesize("text", "v9")

    def test_empty_text_rejected_before_network(self, tmp_path, cache):
        backend = MockTts()
        client = TtsClient(backend, cache, sleep=no_sleep)
        with pytest.raises(SynthesisRejected):
            client.synthesize("", "v1")
        assert backend.calls.count == 0


class TestTranslateClient:
    def _audio(self):
        return AudioRef("audio/x.wav", 1.0, 16000, AudioOrigin.SYNTHETIC, "v1")

    def test_echo_mt(self, cache):
        client = TranslateClient(EchoTranslator(), cache, sleep=no_sleep)
        hyp = client.translate("mt", "bonjour", None, ("fra", "eng"))
        assert hyp == Hypothesis(mode=TranslationMode.MT, text="bonjour")

    def test_mt_with_audio_rejected(self, cache):
        client = TranslateClient(EchoTranslator(), cache, sleep=no_sleep)
        with pytest.raises(ModeAudioMismatch):
            client.translate("mt", "x", self._audio(), ("fra", "eng"))

    def test_smt_without_audio_rejected(self, cache):
        client = TranslateClient(EchoTranslator(), cache, sleep=no_sleep)
        with pytest.raises(ModeAudioMismatch):
            client.translate("smt", "x", None, ("fra", "eng"))

    def test_contrast_smt_longer_than_mt(self, cache):
        client = TranslateClient(ContrastTranslator(), cache, sleep=no_sleep)
        text = "three little words"
        mt = client.translate("mt", text, None, ("eng", "deu"))
        smt = client.translate("smt", text, self._audio(), ("eng", "deu"))
        assert len(smt.text.split()) > len(mt.text.split())
        assert smt.text == text
        assert mt.text == "three little"

    def test_empty_translation_rejected(self, cache):
        client = TranslateClient(ContrastTranslator(), cache, sleep=no_sleep)
        with pytest.raises(EmptyTranslation):
            client.translate("mt", "single", None, ("eng", "deu"))

    def test_lookup_translator_with_fallback(self, cache):
        backend = LookupTranslator({("mt", "src"): "scripted"})
        client = TranslateClient(backend, cache, sleep=no_sleep)
        assert client.translate("mt", "src", None, ("eng", "deu")).text == "scripted"
        assert client.translate("mt", "other", None, ("eng", "deu")).text == "other"

    def test_cache_hit_skips_backend(self, cache):
        backend = EchoTranslator()
        client = TranslateClient(backend, cache, sleep=no_sleep)
        for _ in range(3):
            client.translate("mt", "same input", None, ("eng", "deu"))
        assert backend.calls.count == 1

    def test_cold_call_stores_under_payload_hash(self, tmp_path):
        backend = EchoTranslator()
        sent = []
        translate = backend.translate
        backend.translate = lambda payload: sent.append(dict(payload)) or translate(payload)
        cache = ContentCache(tmp_path / "cache")
        client = TranslateClient(backend, cache, sleep=no_sleep)
        client.translate("mt", "once", None, ("eng", "deu"))
        cache.close()
        assert len(sent) == 1
        key = entry_key("translate", "v0", sent[0])
        assert stored_texts(tmp_path / "cache") == {key: '{"text":"once"}'}
        fresh = ContentCache(tmp_path / "cache")
        assert fresh.get(key) == {"text": "once"}
        fresh.close()

    def test_version_namespace_separates_cache_entries(self, cache):
        backend = EchoTranslator()
        version = {"n": 0}
        client = TranslateClient(backend, cache, sleep=no_sleep,
                                 namespace=lambda: f"v{version['n']}")
        client.translate("mt", "text", None, ("eng", "deu"))
        client.translate("mt", "text", None, ("eng", "deu"))
        assert backend.calls.count == 1
        version["n"] = 1  # the model was updated; cached answers are stale
        client.translate("mt", "text", None, ("eng", "deu"))
        assert backend.calls.count == 2


class TestScoreClient:
    def test_perfect_match_scores_one(self, cache):
        client = ScoreClient(MockScorer(), cache, sleep=no_sleep)
        assert client.score("src", "same words", "same words") == 1.0

    def test_disjoint_scores_zero(self, cache):
        client = ScoreClient(MockScorer(), cache, sleep=no_sleep)
        assert client.score("src", "aaa bbb", "ccc ddd") == 0.0

    def test_f1_matches_brute_force_oracle(self, cache):
        rng = random.Random(41)
        vocab = ["red", "green", "blue", "cyan"]
        client = ScoreClient(MockScorer(), cache, sleep=no_sleep)
        for _ in range(100):
            hyp = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            got = client.score("s", hyp, ref)
            h, r = hyp.split(), ref.split()
            overlap = sum(min(c, Counter(r)[t]) for t, c in Counter(h).items())
            if overlap == 0:
                want = 0.0
            else:
                p, q = overlap / len(h), overlap / len(r)
                want = 2 * p * q / (p + q)
            assert got == pytest.approx(want, abs=1e-12)

    def test_out_of_range_rejected(self, cache):
        class Broken:
            def score(self, payload):
                return {"score": 1.5}

        client = ScoreClient(Broken(), cache, sleep=no_sleep)
        with pytest.raises(ScoreOutOfRange):
            client.score("s", "h", "r")

    def test_empty_inputs_rejected(self, cache):
        client = ScoreClient(MockScorer(), cache, sleep=no_sleep)
        with pytest.raises(ValueError):
            client.score("", "h", "r")

    def test_token_f1_symmetric_bounds(self):
        rng = random.Random(99)
        vocab = ["a", "b", "c"]
        for _ in range(200):
            x = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6)))
            y = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6)))
            f = token_f1(x, y)
            assert 0.0 <= f <= 1.0
            assert f == token_f1(y, x)


class TestRetryIntegration:
    def test_flaky_backend_recovers_within_budget(self, cache, tmp_path):
        backend = FlakyWrapper(MockTts(), fail_first=2)
        config = EndpointConfig(max_attempts=3, backoff_base_ms=1)
        client = TtsClient(backend, cache, config=config, sleep=no_sleep)
        audio = client.synthesize("retry me", "v1")
        assert audio.duration_s == pytest.approx(len("retry me") / 15.0)

    def test_flaky_backend_exhausts(self, cache, tmp_path):
        backend = FlakyWrapper(MockTts(), fail_first=10)
        config = EndpointConfig(max_attempts=3, backoff_base_ms=1)
        client = TtsClient(backend, cache, config=config, sleep=no_sleep)
        with pytest.raises(BackendUnavailable) as exc:
            client.synthesize("no luck", "v1")
        assert exc.value.attempts == 3


class TestScheduledScorer:
    def test_follows_version_schedule(self, cache):
        version = {"n": 0}
        backend = ScheduledScorer([0.8, 0.9], lambda: version["n"])
        client = ScoreClient(backend, cache, sleep=no_sleep,
                             namespace=lambda: f"v{version['n']}")
        assert client.score("s", "ref", "ref") == 0.8
        assert client.score("s", "other", "ref") == pytest.approx(0.75)
        version["n"] = 1
        assert client.score("s", "ref", "ref") == 0.9

    def test_schedule_saturates_at_tail(self, cache):
        backend = ScheduledScorer([0.5], lambda: 7)
        client = ScoreClient(backend, cache, sleep=no_sleep)
        assert client.score("s", "x", "x") == 0.5


class TestEndpointConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EndpointConfig(timeout_s=0)
        with pytest.raises(ValueError):
            EndpointConfig(max_attempts=0)
        with pytest.raises(ValueError):
            EndpointConfig(backoff_base_ms=0)
