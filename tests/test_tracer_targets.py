"""The benchmark's tracer wraps pipeline layers by module attribute and skips
any attribute it cannot find, so a renamed layer would silently drop out of
the per-layer metrics.  These tests fail instead: when a target no longer
resolves, when a run of the delivery demo no longer goes through a layer,
and when a layer's row counter reads 0."""

import contextlib
import importlib
import io
import types
from pathlib import Path

import pytest

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


DELIVERY = Path(__file__).resolve().parent.parent / "demos" / "delivery"

# the layers each run goes through, by tracer target
LAYERS = {
    "natural": ["lpcq.cli.main", "lpcq.cli.load_database", "lpcq.cli.parse",
                "lpcq.cli.normal_form", "lpcq.cli.close", "lpcq.cli.quantifier_eliminate",
                "lpcq.cli.natural", "lpcq.interpret.evaluate", "lpcq.queries.join_factors",
                "lpcq.cli.solve", "scipy.optimize.linprog"],
    "factorized": ["lpcq.cli.main", "lpcq.cli.load_database", "lpcq.cli.parse",
                   "lpcq.cli.normal_form", "lpcq.cli.close", "lpcq.cli.quantifier_eliminate",
                   "lpcq.cli.build_decompositions", "lpcq.cli.factorized",
                   "lpcq.interpret.bag_projections", "lpcq.decomp.join_factors",
                   "lpcq.queries.join_factors", "lpcq.cli.solve", "scipy.optimize.linprog"],
}


@pytest.mark.parametrize("mode", sorted(LAYERS))
def test_every_layer_reports_its_rows(mode, monkeypatch, tmp_path):
    # spies go where the tracer's wrappers go, by module attribute, and read
    # the tracer's own counters off each result; a layer the pipeline no
    # longer calls, or one whose counter reads 0, fails here
    calls = {}
    for module_name, attr, _layer, metrics, counter in load_tracer().TARGETS:
        module = importlib.import_module(module_name)
        name = f"{module_name}.{attr}"

        def spy(*args, _fn=getattr(module, attr), _name=name, _counter=counter, **kwargs):
            result = _fn(*args, **kwargs)
            counts = _counter(args, kwargs, result) if _counter else ()
            calls.setdefault(_name, []).append((result, counts))
            return result

        monkeypatch.setattr(module, attr, spy)

    argv = ["solve", str(DELIVERY / "delivery.lpcq"), str(DELIVERY / "data"), "--mode", mode,
            "--weights", str(tmp_path / "w.csv")]
    if mode == "factorized":
        argv += ["--decomp", str(DELIVERY / "decomp.json")]
    cli = importlib.import_module("lpcq.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert sorted(calls) == sorted(LAYERS[mode])
    for name, results in calls.items():
        for result, counts in results:
            assert all(count > 0 for count in counts), (name, counts)
    ((db, _),) = calls["lpcq.cli.load_database"]
    assert db.size > 0
    for name in ("lpcq.interpret.evaluate", "lpcq.queries.join_factors",
                 "lpcq.decomp.join_factors"):
        assert all(len(result) > 0 for result, _ in calls.get(name, ())), name
