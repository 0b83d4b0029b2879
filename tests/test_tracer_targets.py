"""The benchmark's tracer wraps pipeline layers by module attribute and skips
any attribute it cannot find, so a renamed layer would silently drop out of
the per-layer metrics.  This test fails instead."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    # compiled from its text rather than imported, so nothing is written
    # next to it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    missing = []
    for module_name, attr, *_ in targets:
        module = importlib.import_module(module_name)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing
