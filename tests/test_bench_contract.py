"""The benchmark's traced run wraps privtrace functions by name; a renamed
or re-kinded function would otherwise surface only in the benchmark's own
slow self-test."""

from __future__ import annotations

import importlib
import inspect
import types

from conftest import SCENARIOS

TRACING = SCENARIOS.parent / "bench" / "tracing.py"
CLASSMETHODS = {("privacy", "Mechanism.from_rows")}


def _load_tracing():
    """Run the file's source without an import, so no bytecode is written
    next to it."""
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def _kind(module: str, qualname: str) -> str:
    owner = importlib.import_module(f"privtrace.{module}")
    if "." not in qualname:
        obj = getattr(owner, qualname)
        return "function" if inspect.isfunction(obj) else type(obj).__name__
    cls_name, attr = qualname.split(".")
    obj = vars(getattr(owner, cls_name)).get(attr)
    if isinstance(obj, classmethod):
        return "classmethod"
    return "method" if inspect.isfunction(obj) else type(obj).__name__


def test_every_traced_name_resolves_with_its_kind():
    tracing = _load_tracing()
    assert tracing.WRAPPED
    for module, qualname, _timed in tracing.WRAPPED:
        if (module, qualname) in CLASSMETHODS:
            expected = "classmethod"
        else:
            expected = "method" if "." in qualname else "function"
        assert _kind(module, qualname) == expected, (module, qualname)


def test_the_builder_calls_the_traced_names(monkeypatch, capsys):
    """The builder's memos sit behind `saturate`, `check_consistency` and
    `rho`, so the traced run still sees and times all three."""
    modules = [importlib.import_module("privtrace")] + [
        importlib.import_module(f"privtrace.{m}") for m in _load_tracing().MODULES
    ]
    calls = {}
    for module, name in [("dltts", "saturate"), ("dltts", "check_consistency"),
                         ("metrics", "rho")]:
        original = getattr(importlib.import_module(f"privtrace.{module}"), name)
        calls[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    cli = importlib.import_module("privtrace.cli")
    assert cli.cli_main(["analyze", "--scenario", str(SCENARIOS / "hospital" /
                         "scenario.json"), "--epsilon", "0",
                         "--secret", "published:l4"]) == 0
    assert "oracle at s5: epsilon-violation" in capsys.readouterr().out
    assert all(calls.values()), calls
