"""evoloop runs on the standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evoloop

SRC = Path(evoloop.__file__).resolve().parents[1]

PROBE = """
import json, sys
before = set(sys.modules)
import evoloop.cli
{then}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def modules_added(then: str = "") -> list[str]:
    """The modules a fresh interpreter loads for `import evoloop.cli`,
    then `then`."""
    # compare against what the interpreter loaded before the import:
    # site may preload third-party modules of its own
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE.format(then=then)], env=env,
                         check=True, capture_output=True, text=True, timeout=60).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_imports_only_the_standard_library():
    added = {name.partition(".")[0] for name in modules_added()}
    assert "evoloop" in added
    outside = [name for name in added
               if name != "evoloop" and name not in sys.stdlib_module_names]
    assert outside == []


def test_cli_import_skips_http_client_email_and_ssl():
    added = modules_added()
    assert [name for name in added
            if name in ("http.client", "ssl") or name.partition(".")[0] == "email"] == []


def test_https_transport_loads_ssl():
    added = modules_added("from evoloop.backends import HttpTransport\n"
                          "HttpTransport('https://model.invalid')")
    assert "ssl" in added
    assert "http.client" not in added


DEFERRED = ("socket", "subprocess", "csv", "concurrent.futures")


def test_cli_import_defers_rare_path_modules():
    added = modules_added()
    assert [name for name in DEFERRED if name in added] == []


def _write_manifests(tmp_path: Path) -> None:
    rows = [{"src_lang": "eng", "tgt_lang": "khm", "text": f"a b {i}", "reference": f"a b {i}"}
            for i in range(4)]
    for name in ("train.jsonl", "eval.jsonl"):
        (tmp_path / name).write_text("".join(json.dumps(row) + "\n" for row in rows))


def _rounds_workspace(tmp_path: Path) -> str:
    """A workspace whose one round is journaled, by a mock loop run here."""
    from evoloop.cli import main

    _write_manifests(tmp_path)
    ws = str(tmp_path / "ws")
    assert main(["loop", "--train", str(tmp_path / "train.jsonl"), "--eval",
                 str(tmp_path / "eval.jsonl"), "--mock", "--max-rounds", "1",
                 "--workspace", ws]) == 0
    return ws


# the one path that loads each deferred module, as probe code for a tmp_path
LOADING_PATHS = {
    "socket": lambda tmp: "from evoloop.backends import HttpTransport\n"
                          "HttpTransport('http://model.invalid')",
    "subprocess": lambda tmp: "import sys\n"
                              "from evoloop.evolution.loop import run_update_hook\n"
                              "run_update_hook('\"' + sys.executable + '\" -c pass {jobspec}',"
                              " 'jobspec.json')",
    "csv": lambda tmp: "assert evoloop.cli.main(['report', 'rounds', '--workspace',"
                       f" {_rounds_workspace(tmp)!r}, '--csv', {str(tmp / 'r.csv')!r}]) == 0",
    "concurrent.futures": lambda tmp: "from evoloop.backends import run_batch\n"
                                      "run_batch([lambda: 1], max_in_flight=2)",
}


@pytest.mark.parametrize("module", sorted(LOADING_PATHS))
def test_deferred_module_loads_on_its_own_path(tmp_path, module):
    added = modules_added(LOADING_PATHS[module](tmp_path))
    assert [name for name in DEFERRED if name in added] == [module]


def test_cache_and_mock_loop_load_no_sqlite3(tmp_path):
    _write_manifests(tmp_path)
    added = modules_added("from evoloop.backends import ContentCache, entry_key\n"
                          f"cache = ContentCache({str(tmp_path / 'cache')!r})\n"
                          "cache.get(entry_key('score', 'v0', {}))\n"
                          "cache.put(entry_key('score', 'v0', {}), {'score': 0.5})\n"
                          "cache.close()\n"
                          f"code = evoloop.cli.main(['loop', '--train', {str(tmp_path / 'train.jsonl')!r},"
                          f" '--eval', {str(tmp_path / 'eval.jsonl')!r}, '--mock',"
                          f" '--workspace', {str(tmp_path / 'ws')!r}])\n"
                          "assert code == 0, code")
    assert "sqlite3" not in added
    assert (tmp_path / "ws" / "cache" / "responses.log").stat().st_size > 0


def test_width_one_batch_starts_no_pool():
    added = modules_added("from evoloop.backends import run_batch\n"
                          "run_batch([lambda: 1, lambda: 2], max_in_flight=1)")
    assert "concurrent.futures" not in added


def test_mock_synth_imports_no_wave(tmp_path):
    manifest = tmp_path / "train.jsonl"
    manifest.write_text(json.dumps({"src_lang": "eng", "tgt_lang": "khm",
                                    "text": "a b", "reference": "a b"}) + "\n")
    added = modules_added(f"evoloop.cli.main(['synth', {str(manifest)!r}, '--mock',"
                          f" '--workspace', {str(tmp_path / 'ws')!r}])")
    assert "wave" not in added
    assert not (tmp_path / "ws" / "audio").exists()


def test_report_rounds_without_csv_skips_csv(tmp_path):
    added = modules_added("assert evoloop.cli.main(['report', 'rounds', '--workspace',"
                          f" {_rounds_workspace(tmp_path)!r}]) == 0")
    assert "csv" not in added


def test_http_transport_resolves_from_the_package():
    import evoloop.backends as backends
    from evoloop.backends.transport import HttpTransport

    assert backends.HttpTransport is HttpTransport
    assert "HttpTransport" in backends.__all__
    namespace = {}
    exec("from evoloop.backends import *", namespace)
    assert namespace["HttpTransport"] is HttpTransport
    exec("from evoloop.backends import HttpTransport as imported", namespace)
    assert namespace["imported"] is HttpTransport
    with pytest.raises(AttributeError):
        backends.NoSuchTransport
