"""Every name the benchmark's tracer patches stands where the tracer looks.

`perfbench/tracing.py` replaces program callables in place: a class
attribute or a module global, looked up as `owner.__dict__[attr]`. A rename
in `src/` would break `perfbench/run.py --trace 1` without failing any
other test here, since the benchmark's own tests live outside `tests/`.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module_name, class_name, attr, span", tracing.WRAPPED,
    ids=[f"{m}.{c + '.' if c else ''}{a}" for m, c, a, _ in tracing.WRAPPED])
def test_wrapped_name_is_in_its_owners_dict(module_name, class_name, attr, span):
    owner = tracing._resolve(module_name, class_name)
    assert callable(owner.__dict__[attr])


@pytest.mark.parametrize("module_name, attr", [
    ("evoloop.evolution.phases", "run_batch"),
    ("evoloop.backends.clients", "with_retry"),
])
def test_batch_and_retry_layers_are_module_globals(module_name, attr):
    module = tracing._resolve(module_name, None)
    assert callable(module.__dict__[attr])
