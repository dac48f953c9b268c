"""evoloop runs on the standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
