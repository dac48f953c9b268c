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
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added)))
"""


def test_cli_imports_only_the_standard_library():
    # compare against what the interpreter loaded before the import:
    # site may preload third-party modules of its own
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    added = json.loads(out.splitlines()[-1])
    assert "evoloop" in added
    outside = [name for name in added
               if name != "evoloop" and name not in sys.stdlib_module_names]
    assert outside == []
