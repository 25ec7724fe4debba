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
