"""The benchmark's tracer binds package functions by name; every name it
traces must still exist and be bound, so a rename fails here first."""

import importlib
import pkgutil
import types
from pathlib import Path

import appellsys

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py as a fresh module, read without writing bytecode."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_function_is_bound():
    for info in pkgutil.iter_modules(appellsys.__path__):
        importlib.import_module(f"appellsys.{info.name}")
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        unbound = [attr for _, _, attr in tracer_module.TARGETS if tracer.bindings.get(attr, 0) < 1]
    finally:
        tracer.uninstall()
    assert unbound == []
