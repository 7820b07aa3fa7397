"""The names bench/tracer.py patches must exist in the package.

The benchmark's tracer wraps functions by (module, attribute) and patches
three PropEngine methods; a renamed or deleted one would break only
``bench/run.py --trace 1``.  The tracer module is imported and read here,
never installed.
"""

import types
from pathlib import Path

import pytest

from bdmc import engine

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    """The tracer module, run from its source (no bytecode cache is written)."""
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("module, attr", [pytest.param(m, a, id=f"{m.__name__}.{a}")
                                          for m, a, _, _ in load_tracer().WRAPPED])
def test_tracer_wraps_existing_functions(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("method", ["__init__", "assert_lits", "backtrack"])
def test_tracer_patches_existing_engine_methods(method):
    assert callable(vars(engine.PropEngine).get(method))
