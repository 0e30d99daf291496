"""The benchmark's tracer wraps library functions by name and skips a name
it cannot find, whose metrics then read 0; every name it lists must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves_to_a_callable():
    targets = _load_tracing().TARGETS
    assert targets
    for modname, attr, _ in targets:
        obj = importlib.import_module(f"gradus.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"gradus.{modname}.{attr}"
