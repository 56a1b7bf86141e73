"""The benchmark's tracer wraps library names listed in ``perfbench/tracing.py``;
a renamed or removed name breaks it.  The list is read with ``ast``, so the
tracer itself is never imported here.  The tracer also counts restricted
gain's degenerate fallback where the public update raises it, so that call
is pinned too."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from eqkf import Measurement, constrained, harness
from eqkf.errors import DegenerateResidual

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


def test_degenerate_restricted_gain_step_goes_through_the_public_update(monkeypatch):
    # The benchmark's "constrained.restricted_gain_update.degenerate" metric
    # counts restricted_gain_update calls that raise DegenerateResidual.
    config = harness.load_bundled_scenario("line_2d")
    spec = next(s for s in config.methods if s.name == "restricted_gain")
    model = config.model_at(0)
    state = config.initial_estimate
    # A measurement equal to the predicted observation has zero innovation.
    z = Measurement(model.observation @ model.transition @ state.mean, step=1)
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                calls.append((name, type(exc)))
                raise
            calls.append((name, None))
            return out
        return wrapper

    for name in ("restricted_gain_update", "project"):
        monkeypatch.setattr(constrained, name, recording(name, getattr(constrained, name)))
    reported, _ = harness.advance_method(state, z, model, spec, config)
    assert calls == [("restricted_gain_update", DegenerateResidual), ("project", None)]
    assert np.linalg.norm(config.constraint.matrix @ reported.mean - config.constraint.rhs) < 1e-9
