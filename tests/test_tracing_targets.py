"""The benchmark's tracer wraps library names listed in ``perfbench/tracing.py``;
a renamed or removed name breaks it.  The list is read with ``ast``, so the
tracer itself is never imported here."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> dict:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


TARGETS = [(module, name) for module, names in _targets().items() for name in names]


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_traced_name_is_bound(module, name):
    target = getattr(importlib.import_module(module), name, None)
    assert target is not None, f"{module} no longer binds {name}"
    if isinstance(target, type):
        # the tracer wraps the class's own constructor
        assert "__init__" in vars(target), f"{module}.{name} has no __init__ of its own"
    else:
        assert callable(target)
